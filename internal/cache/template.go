package cache

import (
	"fmt"
	"slices"
)

// LLCTemplate is the LLC every build of one text range and LLC geometry
// starts from: the text's lines inserted in ascending order into an empty
// LLC (the paper's warmed-checkpoint methodology: all cores run the same
// binary, so its text is LLC-resident). It is a pure function of the range
// and the geometry, immutable once built, and shared read-only by every
// hierarchy loaded from it.
type LLCTemplate struct {
	c SetAssoc
}

// NewLLCTemplate preloads the lines [first, end) into an empty LLC of sets x
// assoc ways, exactly as Hierarchy.WarmLLCRange would.
func NewLLCTemplate(sets, assoc int, first, end Line) *LLCTemplate {
	t := &LLCTemplate{c: *newSetAssoc(sets, assoc)}
	t.c.insertRange(first, end)
	return t
}

// LLCGeometry returns the LLC's set count and associativity, the geometry a
// template for it must have.
func (h *Hierarchy) LLCGeometry() (sets, assoc int) { return h.llc.Sets(), h.llc.Ways() }

// LoadLLC makes the LLC a copy of t, replacing its contents (and, like
// WarmLLCRange, leaving its hit/miss counters alone). The hierarchy
// remembers t as the base Freeze diffs against.
func (h *Hierarchy) LoadLLC(t *LLCTemplate) {
	if h.llc.nsets != t.c.nsets || h.llc.assoc != t.c.assoc {
		panic(fmt.Sprintf("cache: %v template loaded into a %v LLC", &t.c, h.llc))
	}
	copy(h.llc.ways, t.c.ways)
	h.tmpl = t
}

// llcDelta is a frozen LLC: the sets that differ from the template, in
// ascending set order, and their ways (assoc per set).
type llcDelta struct {
	sets []uint32
	ways []way
}

// Freeze compacts the hierarchy into the warm arena's resident form: the
// LLC tag array, most of which still equals the template it was loaded
// from, is dropped in favour of the sets that differ. Everything else is
// small and stays dense. A frozen hierarchy cannot be accessed; Clone
// expands it back into a dense one.
func (h *Hierarchy) Freeze() {
	if h.tmpl == nil {
		panic("cache: Freeze of an LLC not loaded from a template")
	}
	if h.delta != nil {
		return
	}
	a, cur, base := h.llc.assoc, h.llc.ways, h.tmpl.c.ways
	d := &llcDelta{}
	for s := 0; s < len(cur); s += a {
		if !slices.Equal(cur[s:s+a], base[s:s+a]) {
			d.sets = append(d.sets, uint32(s/a))
		}
	}
	d.ways = make([]way, 0, len(d.sets)*a)
	for _, s := range d.sets {
		d.ways = append(d.ways, cur[int(s)*a:(int(s)+1)*a]...)
	}
	h.delta = d
	h.llc.ways = nil
}

// thaw returns a dense copy of the frozen LLC: the template with the
// changed sets scattered over it. The template itself is only read.
func (h *Hierarchy) thaw() *SetAssoc {
	n := *h.llc
	n.ways = append(make([]way, 0, len(h.tmpl.c.ways)), h.tmpl.c.ways...)
	a := n.assoc
	for k, s := range h.delta.sets {
		copy(n.ways[int(s)*a:], h.delta.ways[k*a:(k+1)*a])
	}
	return &n
}
