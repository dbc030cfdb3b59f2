// Package uarch is a trace-driven model of a Core 2-class processor core:
// set-associative L1 instruction, L1 data and L2 caches, a data TLB with a
// hardware page walker, an instruction TLB, a gshare branch predictor, and
// store-to-load forwarding with the three blocking conditions the paper's
// events describe (unknown store address, unready store data, partial
// overlap). Executing a synthetic op stream against these state machines
// yields the per-window event counts and cycle totals that
// internal/pmu turns into model samples.
//
// The simulator is statistical, not cycle-accurate: cycles accumulate
// through an additive cost model with an ILP overlap divisor, which is all
// the fidelity the paper's regression methodology consumes.
package uarch

import (
	"errors"
	"fmt"
	"math/bits"
)

// Cache is a set-associative cache with true-LRU replacement, tracking
// only tags (contents are irrelevant to event generation).
//
// Each way is a key and an LRU stamp. A key is the line's tag with bit 63
// set, so 0 marks an empty way and a hit is one compare per way; a stamp
// is the cache's access tick at the way's last use, 0 while empty. Ticks
// only increase, so no two filled ways share a stamp and the LRU victim is
// unique.
type Cache struct {
	lineShift uint
	tagShift  uint // line-number bits consumed by the set index
	setMask   uint64
	ways      int
	keys      []uint64 // sets*ways entries, set-major: tag|validKey, or 0
	used      []uint64 // LRU stamps, parallel to keys
	tick      uint64
}

// validKey marks a filled way's key. A tag drops the line offset and the
// set index from the address, at least one bit (NewCache rejects a single
// set of 1-byte lines), so it never reaches bit 63.
const validKey = 1 << 63

// NewCache builds a cache of the given total size, associativity, and
// line size. Size must be divisible by ways*line and the set count must be
// a power of two.
func NewCache(sizeBytes, ways, lineBytes int) (*Cache, error) {
	if sizeBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		return nil, errors.New("uarch: cache dimensions must be positive")
	}
	if sizeBytes%(ways*lineBytes) != 0 {
		return nil, fmt.Errorf("uarch: cache size %d not divisible by ways*line %d", sizeBytes, ways*lineBytes)
	}
	sets := sizeBytes / (ways * lineBytes)
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("uarch: set count %d is not a power of two", sets)
	}
	if lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("uarch: line size %d is not a power of two", lineBytes)
	}
	if sets == 1 && lineBytes == 1 {
		return nil, errors.New("uarch: a single set of 1-byte lines leaves no tag bit free for the valid mark")
	}
	return &Cache{
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
		tagShift:  uint(bits.Len64(uint64(sets - 1))),
		setMask:   uint64(sets - 1),
		ways:      ways,
		keys:      make([]uint64, sets*ways),
		used:      make([]uint64, sets*ways),
	}, nil
}

// LineBytes returns the cache's line size.
func (c *Cache) LineBytes() int { return 1 << c.lineShift }

// Access looks up the line containing addr, inserting it on a miss
// (evicting the LRU way). It reports whether the access hit.
func (c *Cache) Access(addr uint64) bool {
	c.tick++
	line := addr >> c.lineShift
	key := line>>c.tagShift | validKey
	base := int(line&c.setMask) * c.ways
	keys := c.keys[base : base+c.ways : base+c.ways]
	used := c.used[base : base+c.ways : base+c.ways]
	for i, k := range keys {
		if k == key {
			used[i] = c.tick
			return true
		}
	}
	// Miss: the way with the minimum stamp is an empty way (stamp 0) if
	// the set has one, else the unique least recently used.
	victim, oldest := 0, used[0]
	for i, u := range used {
		if u < oldest {
			victim, oldest = i, u
		}
	}
	keys[victim] = key
	used[victim] = c.tick
	return false
}

// Splits reports whether an access of size bytes at addr crosses a line
// boundary.
func (c *Cache) Splits(addr uint64, size uint32) bool {
	if size == 0 {
		return false
	}
	return addr>>c.lineShift != (addr+uint64(size)-1)>>c.lineShift
}

// Reset invalidates the entire cache.
func (c *Cache) Reset() {
	clear(c.keys)
	clear(c.used)
	c.tick = 0
}

// TLB is a set-associative translation buffer over fixed-size pages,
// implemented as a Cache whose "lines" are pages.
type TLB struct {
	c         *Cache
	pageShift uint
}

// NewTLB builds a TLB with the given number of entries, associativity,
// and page size.
func NewTLB(entries, ways, pageBytes int) (*TLB, error) {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		return nil, fmt.Errorf("uarch: TLB entries %d not divisible by ways %d", entries, ways)
	}
	if pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		return nil, fmt.Errorf("uarch: page size %d is not a power of two", pageBytes)
	}
	// Reuse Cache with line = 1 "byte" over page numbers: we build a cache
	// of entries sets*ways with line size 1 and feed it page numbers.
	c, err := NewCache(entries, ways, 1)
	if err != nil {
		return nil, err
	}
	return &TLB{c: c, pageShift: uint(bits.TrailingZeros(uint(pageBytes)))}, nil
}

// Access translates addr, inserting the page on a miss, and reports
// whether the translation hit.
func (t *TLB) Access(addr uint64) bool {
	return t.c.Access(addr >> t.pageShift)
}

// SpansPages reports whether an access of size bytes at addr touches two
// pages.
func (t *TLB) SpansPages(addr uint64, size uint32) bool {
	if size == 0 {
		return false
	}
	return addr>>t.pageShift != (addr+uint64(size)-1)>>t.pageShift
}

// Reset invalidates all translations.
func (t *TLB) Reset() { t.c.Reset() }
