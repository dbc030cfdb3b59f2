package mtree

// Serialized compiled-tree artifacts.
//
// WriteJSON/ReadJSON persist the pointer tree — the induction and
// inspection representation. A scoring daemon wants neither: it should
// load the evaluation form directly, paying zero induction or lowering
// cost at deploy time. WriteTo/ReadCompiled serialize the CompiledTree
// itself (SoA node arrays plus the pre-composed coefficient slab) as a
// small versioned binary artifact:
//
//	offset  field
//	0       magic "SPCCTRE1" (8 bytes)
//	8       format version (u32 LE)
//	12      smooth flag (u8)
//	        schema: response string, attribute strings (u32 count + bytes)
//	        interior count, leaf count, root ref (i32)
//	        attrs []i32, thresholds []f64, left []i32, right []i32
//	        intercepts []f64, coefs []f64 (leaf count × width)
//	end-4   CRC-32 (IEEE) of every preceding byte
//
// All integers and floats are little-endian; float64s are IEEE-754 bit
// patterns. The reader validates the checksum, every structural
// invariant a traversal relies on (reference ranges, child-after-parent
// ordering — which also rules out reference cycles), and that the stream
// ends exactly at the checksum: trailing bytes mean a corrupt artifact
// (two writes landing in one file), not slack to ignore.
//
// Version history. Version 1 stored the interior arrays in preorder;
// version 2 (current) stores them depth-layered breadth-first. The byte
// layout is identical — only the interior permutation differs — and both
// orders satisfy the same child-index-greater-than-parent invariant, so
// ReadCompiled accepts either version unchanged: every traversal follows
// explicit child references, so a v1 preorder artifact scores exactly
// like its v2 recompilation.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"specchar/internal/dataset"
)

// ErrArtifact tags every malformed compiled-artifact error, so callers
// can distinguish corruption from I/O failure with errors.Is.
var ErrArtifact = errors.New("mtree: invalid compiled-tree artifact")

// artifactMagic identifies a serialized CompiledTree. The trailing '1'
// is part of the magic, not the version: a future incompatible layout
// bumps artifactVersion, while the magic pins the file family.
const artifactMagic = "SPCCTRE1"

// artifactVersion is the current artifact format version (depth-layered
// interior order). artifactVersionPreorder artifacts, written before the
// layered order, share the byte layout and remain loadable.
const (
	artifactVersion         = 2
	artifactVersionPreorder = 1
)

// WriteTo serializes the compiled tree in the versioned binary artifact
// format, implementing io.WriterTo. The artifact is self-validating
// (CRC-32 trailer) and loads with ReadCompiled.
func (c *CompiledTree) WriteTo(w io.Writer) (int64, error) {
	if c.schema == nil {
		return 0, fmt.Errorf("%w: tree has no schema", ErrArtifact)
	}
	buf := make([]byte, 0, 64+20*len(c.attrs)+8*(len(c.intercepts)+len(c.coefs)))
	buf = append(buf, artifactMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, artifactVersion)
	if c.smooth {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = appendString(buf, c.schema.Response)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.schema.Attributes)))
	for _, a := range c.schema.Attributes {
		buf = appendString(buf, a)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.attrs)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.intercepts)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.rootRef))
	for _, v := range c.attrs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	for _, v := range c.thresholds {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	for _, v := range c.left {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	for _, v := range c.right {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	for _, v := range c.intercepts {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	for _, v := range c.coefs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	n, err := w.Write(buf)
	return int64(n), err
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// ReadCompiled loads a compiled tree serialized by WriteTo, verifying the
// checksum and revalidating every invariant scoring depends on. It
// consumes the reader to EOF and rejects artifacts followed by trailing
// bytes.
func ReadCompiled(r io.Reader) (*CompiledTree, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("mtree: reading compiled artifact: %w", err)
	}
	ar := &artifactReader{data: data}
	if string(ar.bytes(len(artifactMagic))) != artifactMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrArtifact)
	}
	if v := ar.u32(); ar.err == nil && v != artifactVersion && v != artifactVersionPreorder {
		return nil, fmt.Errorf("%w: unsupported format version %d", ErrArtifact, v)
	}
	smooth := ar.u8() != 0
	schema := &dataset.Schema{Response: ar.str()}
	nattrs := int(ar.u32())
	if ar.err == nil && (nattrs <= 0 || nattrs > len(ar.data)) {
		return nil, fmt.Errorf("%w: implausible attribute count %d", ErrArtifact, nattrs)
	}
	if ar.err == nil {
		schema.Attributes = make([]string, nattrs)
		for j := range schema.Attributes {
			schema.Attributes[j] = ar.str()
		}
	}
	interior, leaves := int(ar.u32()), int(ar.u32())
	rootRef := int32(ar.u32())
	c := &CompiledTree{
		schema:     schema,
		width:      nattrs,
		smooth:     smooth,
		rootRef:    rootRef,
		attrs:      ar.i32s(interior),
		thresholds: nil, // filled below; field order documents the layout
	}
	c.thresholds = ar.f64s(interior)
	c.left = ar.i32s(interior)
	c.right = ar.i32s(interior)
	c.intercepts = ar.f64s(leaves)
	c.coefs = ar.f64s(leaves * nattrs)

	// Checksum, then hard EOF: the CRC covers everything before it, and
	// nothing may follow it.
	payload := ar.off
	sum := ar.u32()
	if ar.err != nil {
		return nil, ar.err
	}
	if got := crc32.ChecksumIEEE(data[:payload]); got != sum {
		return nil, fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrArtifact, sum, got)
	}
	if ar.off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes after checksum", ErrArtifact, len(data)-ar.off)
	}
	if err := c.validateRefs(); err != nil {
		return nil, err
	}
	return c, nil
}

// validateRefs checks every invariant the flat traversal relies on:
// reference ranges, split attributes inside the schema, and strictly
// increasing interior child indices — an invariant both the v1 preorder
// and v2 breadth-first layouts satisfy — which bounds traversal depth and
// makes reference cycles impossible.
func (c *CompiledTree) validateRefs() error {
	interior, leaves := len(c.attrs), len(c.intercepts)
	if leaves == 0 {
		return fmt.Errorf("%w: no leaf models", ErrArtifact)
	}
	checkRef := func(parent int, r int32) error {
		if r >= 0 {
			if int(r) >= interior {
				return fmt.Errorf("%w: interior ref %d out of range", ErrArtifact, r)
			}
			if parent >= 0 && int(r) <= parent {
				return fmt.Errorf("%w: interior ref %d not after its parent %d", ErrArtifact, r, parent)
			}
			return nil
		}
		if int(^r) >= leaves {
			return fmt.Errorf("%w: leaf ref %d out of range", ErrArtifact, ^r)
		}
		return nil
	}
	if err := checkRef(-1, c.rootRef); err != nil {
		return err
	}
	if interior > 0 && c.rootRef != 0 {
		return fmt.Errorf("%w: root ref %d is not the first interior node", ErrArtifact, c.rootRef)
	}
	for i := 0; i < interior; i++ {
		if a := c.attrs[i]; a < 0 || int(a) >= c.width {
			return fmt.Errorf("%w: split attribute %d outside schema width %d", ErrArtifact, a, c.width)
		}
		if err := checkRef(i, c.left[i]); err != nil {
			return err
		}
		if err := checkRef(i, c.right[i]); err != nil {
			return err
		}
	}
	return nil
}

// artifactReader is a bounds-checked little-endian cursor over the raw
// artifact bytes. The first failed read latches err and every subsequent
// read returns zero values, so parse code reads straight through and
// checks once.
type artifactReader struct {
	data []byte
	off  int
	err  error
}

func (a *artifactReader) bytes(n int) []byte {
	if a.err != nil || n < 0 || a.off+n > len(a.data) || a.off+n < a.off {
		if a.err == nil {
			a.err = fmt.Errorf("%w: truncated (want %d bytes at offset %d of %d)", ErrArtifact, n, a.off, len(a.data))
		}
		return nil
	}
	b := a.data[a.off : a.off+n]
	a.off += n
	return b
}

func (a *artifactReader) u8() byte {
	b := a.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (a *artifactReader) u32() uint32 {
	b := a.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (a *artifactReader) str() string {
	n := int(a.u32())
	if a.err == nil && n > len(a.data) {
		a.err = fmt.Errorf("%w: implausible string length %d", ErrArtifact, n)
		return ""
	}
	return string(a.bytes(n))
}

// i32s reads a count-validated int32 slice.
func (a *artifactReader) i32s(n int) []int32 {
	if a.err == nil && (n < 0 || n > (len(a.data)-a.off)/4) {
		a.err = fmt.Errorf("%w: implausible array length %d", ErrArtifact, n)
	}
	if a.err != nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(a.u32())
	}
	return out
}

// f64s reads a count-validated float64 slice.
func (a *artifactReader) f64s(n int) []float64 {
	if a.err == nil && (n < 0 || n > (len(a.data)-a.off)/8) {
		a.err = fmt.Errorf("%w: implausible array length %d", ErrArtifact, n)
	}
	if a.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		b := a.bytes(8)
		if b == nil {
			return nil
		}
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return out
}
