//go:build linux

package dataset

import (
	"errors"
	"fmt"
	"os"
	"syscall"
)

// OpenColumnar maps a columnar artifact file read-only and builds the
// Columnar over the mapping: after the one-time validation pass (CRC,
// structure, finiteness) the float columns are reinterpreted views of
// the page cache — no decode, no copy. Close releases the mapping.
//
// The mapping is advised MADV_SEQUENTIAL: both the validation pass and
// columnar scoring walk the column slabs front to back, so the
// kernel may read ahead aggressively and drop pages behind the cursor.
// The advice is best-effort — a kernel that rejects it changes nothing
// about correctness.
//
// If the payload cannot legally be viewed in place (big-endian host, a
// hand-built file with a misaligned payload) the columns silently fall
// back to decoded copies of the mapped bytes; the mapping is then
// released before returning, so Close stays trivial either way. Unlike
// the happy path, errors releasing resources here are surfaced, not
// dropped: a failed Munmap leaks address space and a failed Close leaks
// a descriptor, and a caller scoring thousands of artifacts deserves to
// know.
func OpenColumnar(path string) (*Columnar, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		f.Close()
		return nil, fmt.Errorf("%w: empty file %s", ErrColumnar, path)
	}
	if size != int64(int(size)) {
		f.Close()
		return nil, fmt.Errorf("%w: file %s too large to map", ErrColumnar, path)
	}
	m, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("dataset: mapping %s: %w", path, err)
	}
	// The mapping survives the descriptor; keeping f open past this point
	// buys nothing, and its Close error is a real signal on some network
	// filesystems.
	if err := f.Close(); err != nil {
		if merr := syscall.Munmap(m); merr != nil {
			err = errors.Join(err, fmt.Errorf("dataset: unmapping %s: %w", path, merr))
		}
		return nil, fmt.Errorf("dataset: closing %s: %w", path, err)
	}
	_ = syscall.Madvise(m, syscall.MADV_SEQUENTIAL) // best-effort readahead hint

	c, err := parseColumnar(m, true)
	if err != nil {
		err = fmt.Errorf("%s: %w", path, err)
		if merr := syscall.Munmap(m); merr != nil {
			err = errors.Join(err, fmt.Errorf("dataset: unmapping %s: %w", path, merr))
		}
		return nil, err
	}
	if c.n > 0 && len(c.cols) > 0 && sliceAliases(c.cols[0], m) {
		c.mapping = m
	} else {
		// Copy fallback: nothing references the mapping.
		if merr := syscall.Munmap(m); merr != nil {
			return nil, fmt.Errorf("dataset: unmapping %s after copy fallback: %w", path, merr)
		}
	}
	return c, nil
}

func unmapFile(m []byte) error { return syscall.Munmap(m) }
