// Package cache models the instruction-side memory hierarchy: a generic
// set-associative cache, the L1-I with its prefetch buffer and MSHRs, and a
// shared LLC backed by memory. Timing is expressed as absolute cycle numbers:
// an access at cycle t returns the cycle its data is ready, so in-flight
// prefetches naturally provide partial latency coverage — the effect the
// paper's "stall cycles covered" metric is designed to capture.
package cache

import (
	"fmt"

	"boomsim/internal/isa"
)

// Line is a cache-line index (address / 64).
type Line = uint64

// LineOf maps an instruction address to its line index.
func LineOf(pc isa.Addr) Line { return pc / isa.BlockBytes }

// way is one 16-byte cache way. key is line+1, so the zero value is an
// invalid way and no separate valid flag is needed.
type way struct {
	key     uint64
	lastUse int64
}

// SetAssoc is a set-associative cache with true-LRU replacement over line
// indices. It stores presence only (instruction caches are read-only here).
// Ways live in one flat backing array indexed arithmetically — set lookup is
// pure address math, with no per-set slice header to chase on the hot path.
type SetAssoc struct {
	ways    []way
	assoc   int
	nsets   uint64
	isPow2  bool
	setMask uint64
	hits    uint64
	misses  uint64
}

// NewSetAssoc builds a cache of the given capacity with sets =
// size/(assoc*line). Power-of-two set counts index with a mask; other set
// counts (e.g. an LLC with capacity carved out for prefetcher metadata)
// index by modulo so the configured capacity is preserved exactly.
func NewSetAssoc(sizeKB, assoc int) *SetAssoc {
	if sizeKB <= 0 || assoc <= 0 {
		panic("cache: non-positive geometry")
	}
	lines := sizeKB * 1024 / isa.BlockBytes
	nsets := lines / assoc
	if nsets == 0 {
		nsets = 1
	}
	return newSetAssoc(nsets, assoc)
}

func newSetAssoc(nsets, assoc int) *SetAssoc {
	return &SetAssoc{
		ways:    make([]way, nsets*assoc),
		assoc:   assoc,
		nsets:   uint64(nsets),
		isPow2:  nsets&(nsets-1) == 0,
		setMask: uint64(nsets - 1),
	}
}

// Ways returns the associativity.
func (c *SetAssoc) Ways() int { return c.assoc }

// Sets returns the set count.
func (c *SetAssoc) Sets() int { return int(c.nsets) }

// Lines returns total capacity in lines.
func (c *SetAssoc) Lines() int { return len(c.ways) }

func (c *SetAssoc) set(line Line) []way {
	var idx uint64
	if c.isPow2 {
		idx = line & c.setMask
	} else {
		idx = line % c.nsets
	}
	base := int(idx) * c.assoc
	return c.ways[base : base+c.assoc]
}

// Lookup checks for the line, updating LRU and hit/miss counters on use.
func (c *SetAssoc) Lookup(line Line, now int64) bool {
	s, key := c.set(line), line+1
	for i := range s {
		if s[i].key == key {
			s[i].lastUse = now
			c.hits++
			return true
		}
	}
	c.misses++
	return false
}

// Contains probes without perturbing LRU or counters (prefetch probes use
// this so probing does not distort replacement).
func (c *SetAssoc) Contains(line Line) bool {
	s, key := c.set(line), line+1
	for i := range s {
		if s[i].key == key {
			return true
		}
	}
	return false
}

// Insert fills the line, evicting the LRU way if needed. It returns the
// victim line when a valid entry was displaced.
func (c *SetAssoc) Insert(line Line, now int64) (victim Line, evicted bool) {
	s, key := c.set(line), line+1
	lru := 0
	for i := range s {
		if s[i].key == key {
			s[i].lastUse = now // already present; refresh
			return 0, false
		}
		if s[i].key == 0 {
			s[i] = way{key: key, lastUse: now}
			return 0, false
		}
		if s[i].lastUse < s[lru].lastUse {
			lru = i
		}
	}
	victim = s[lru].key - 1
	s[lru] = way{key: key, lastUse: now}
	return victim, true
}

// insertRange inserts the lines [first, end) in ascending order at time 0.
func (c *SetAssoc) insertRange(first, end Line) {
	for l := first; l < end; l++ {
		c.Insert(l, 0)
	}
}

// Invalidate drops the line if present.
func (c *SetAssoc) Invalidate(line Line) {
	s, key := c.set(line), line+1
	for i := range s {
		if s[i].key == key {
			s[i].key = 0
			return
		}
	}
}

// Stats returns lifetime hit/miss counts from Lookup calls.
func (c *SetAssoc) Stats() (hits, misses uint64) { return c.hits, c.misses }

func (c *SetAssoc) String() string {
	return fmt.Sprintf("cache{%d sets x %d ways}", c.Sets(), c.Ways())
}
