package cache

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// TestLLCTemplateMatchesWarmLLCRange: a hierarchy loaded from a template has
// exactly the LLC that WarmLLCRange leaves on a fresh one, way for way, on
// the default power-of-two LLC, on the modulo-indexed LLC SHIFT/Confluence's
// 160 KB reservation produces, and for a text range larger than the LLC.
func TestLLCTemplateMatchesWarmLLCRange(t *testing.T) {
	first := Line(0x400000 / 64)
	cases := []struct {
		name       string
		reservedKB int
		wantSets   int
		lines      func(llcLines int) Line
	}{
		{"pow2", 0, 8192, func(int) Line { return 40_000 }},
		{"modulo", 160, 8032, func(int) Line { return 40_000 }},
		{"overflow", 0, 8192, func(n int) Line { return Line(2*n + 37) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := NewHierarchy(testCfg(), tc.reservedKB)
			sets, assoc := want.LLCGeometry()
			if sets != tc.wantSets {
				t.Fatalf("LLC has %d sets, want %d", sets, tc.wantSets)
			}
			end := first + tc.lines(want.llc.Lines())
			want.WarmLLCRange(first, end)

			got := NewHierarchy(testCfg(), tc.reservedKB)
			got.LoadLLC(NewLLCTemplate(sets, assoc, first, end))
			if !slices.Equal(got.llc.ways, want.llc.ways) {
				t.Fatal("template LLC differs from WarmLLCRange")
			}
			if got.llc.hits != 0 || got.llc.misses != 0 {
				t.Fatal("loading a template touched the LLC counters")
			}
			if tc.name != "overflow" {
				return
			}
			// Every preload insert is at time 0, so an overflowing set evicts
			// among equal timestamps and the victim is always way 0: ways
			// 1..assoc-1 keep the set's first lines, way 0 holds its last.
			set0 := uint64(first) % uint64(sets)
			s := got.llc.ways[int(set0)*assoc : int(set0+1)*assoc]
			for i := 1; i < assoc; i++ {
				if s[i].key-1 != uint64(first)+uint64(i*sets) {
					t.Fatalf("way %d holds line %d, want the set's line #%d", i, s[i].key-1, i)
				}
			}
			last := uint64(first)
			for l := last; l < uint64(end); l += uint64(sets) {
				last = l
			}
			if s[0].key-1 != last {
				t.Fatalf("way 0 holds line %d, want the set's last line %d", s[0].key-1, last)
			}
		})
	}
}

// TestLoadLLCRejectsGeometryMismatch: a template only loads into an LLC of
// its own geometry.
func TestLoadLLCRejectsGeometryMismatch(t *testing.T) {
	h := NewHierarchy(testCfg(), 160)
	defer func() {
		if recover() == nil {
			t.Fatal("loading an 8192-set template into an 8032-set LLC did not panic")
		}
	}()
	h.LoadLLC(NewLLCTemplate(8192, 16, 0, 10))
}

// TestFreezeThawProperty: for random access sequences over a template-loaded
// hierarchy, freezing and then cloning yields exactly the dense hierarchy,
// and neither expanding nor running the expansion ever writes the template.
func TestFreezeThawProperty(t *testing.T) {
	cfg := testCfg()
	cfg.LLCSizeKB = 64 // 64 sets x 16 ways: random traffic conflicts often
	first := Line(1 << 16)
	if err := quick.Check(func(seed int64, textLen uint16, ops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHierarchy(cfg, 0)
		sets, assoc := h.LLCGeometry()
		tmpl := NewLLCTemplate(sets, assoc, first, first+Line(textLen%2048))
		pristine := slices.Clone(tmpl.c.ways)
		h.LoadLLC(tmpl)

		now := int64(0)
		access := func(h *Hierarchy, n int) {
			for i := 0; i < n; i++ {
				line := first + Line(rng.Intn(4096))
				switch rng.Intn(3) {
				case 0:
					h.Demand(line, now)
				case 1:
					h.Prefetch(line, now)
				default:
					h.Fetch(line, now)
				}
				now += int64(rng.Intn(40))
				h.Tick(now)
			}
		}
		access(h, int(ops)*8)
		dense := h.Clone()
		h.Freeze()
		if h.llc.ways != nil || len(h.delta.ways) != len(h.delta.sets)*assoc {
			t.Errorf("frozen LLC is not a delta: %d ways kept, %d sets", len(h.llc.ways), len(h.delta.sets))
			return false
		}
		fork := h.Clone()
		if !reflect.DeepEqual(fork, dense) {
			t.Error("clone of the frozen hierarchy differs from the dense one")
			return false
		}
		access(fork, 200)
		if again := h.Clone(); !reflect.DeepEqual(again, dense) {
			t.Error("running a fork changed what the frozen hierarchy expands to")
			return false
		}
		return slices.Equal(tmpl.c.ways, pristine)
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
