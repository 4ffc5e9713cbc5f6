package program

import "boomsim/internal/isa"

// occCount is one nonzero occurrence counter of a frozen walker.
type occCount struct {
	block, n uint32
}

// Freeze compacts the walker into the warm arena's resident form: only the
// nonzero occurrence counters are kept (a warm window touches a few percent
// of an image's blocks). A frozen walker cannot step; Clone expands it back
// into a dense one.
func (w *Walker) Freeze() {
	if w.occ == nil {
		return
	}
	n := 0
	for _, c := range w.occ {
		if c != 0 {
			n++
		}
	}
	w.frozen = make([]occCount, 0, n)
	for i, c := range w.occ {
		if c != 0 {
			w.frozen = append(w.frozen, occCount{block: uint32(i), n: c})
		}
	}
	w.occ = nil
}

// Clone returns an independent copy of the walker at the same execution
// point: subsequent Next calls on the clone and the original produce the
// same step stream without sharing mutable state. The clone of a frozen
// walker is dense. The immutable image is shared.
func (w *Walker) Clone() *Walker {
	c := *w
	c.stack = append(make([]isa.Addr, 0, cap(w.stack)), w.stack...)
	if w.occ == nil {
		c.occ, c.frozen = make([]uint32, len(w.img.Blocks)), nil
		for _, e := range w.frozen {
			c.occ[e.block] = e.n
		}
	} else {
		c.occ = append([]uint32(nil), w.occ...)
	}
	return &c
}
