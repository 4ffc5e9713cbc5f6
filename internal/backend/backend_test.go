package backend

import (
	"math"
	"reflect"
	"testing"

	"boomsim/internal/config"
)

func cfg() config.Core {
	c := config.Default()
	c.RetireWidth = 3
	c.BackendDepth = 12
	return c
}

func TestResolveTiming(t *testing.T) {
	b := New(cfg())
	b.Push(Group{ID: 1, NInstr: 6, FetchDone: 10})
	for now := int64(0); now < 22; now++ {
		resolved, _ := b.Tick(now)
		if len(resolved) != 0 {
			t.Fatalf("resolved early at cycle %d", now)
		}
	}
	resolved, _ := b.Tick(22)
	if len(resolved) != 1 || resolved[0] != 1 {
		t.Fatalf("expected resolution at fetchDone+depth, got %v", resolved)
	}
	// Resolution is emitted exactly once.
	resolved, _ = b.Tick(23)
	if len(resolved) != 0 {
		t.Fatal("duplicate resolution")
	}
}

func TestRetireWidthAndOrder(t *testing.T) {
	b := New(cfg())
	b.Push(Group{ID: 1, NInstr: 5, FetchDone: 0})
	b.Push(Group{ID: 2, NInstr: 4, FetchDone: 1})
	now := int64(12) // group 1 resolves at 12, group 2 at 13
	b.Tick(now)      // retires 3 of group 1
	if b.Retired() != 3 {
		t.Fatalf("retired %d, want 3", b.Retired())
	}
	now++
	_, retired := b.Tick(now) // retires 2 of g1 + 1 of g2
	if b.Retired() != 6 {
		t.Fatalf("retired %d, want 6", b.Retired())
	}
	if len(retired) != 1 || retired[0] != 1 {
		t.Fatalf("retired groups %v, want [1]", retired)
	}
	now++
	_, retired = b.Tick(now)
	if b.Retired() != 9 || len(retired) != 1 || retired[0] != 2 {
		t.Fatalf("retired=%d groups=%v", b.Retired(), retired)
	}
}

func TestInFlightTracking(t *testing.T) {
	b := New(cfg())
	b.Push(Group{ID: 1, NInstr: 10, FetchDone: 0})
	b.Push(Group{ID: 2, NInstr: 20, FetchDone: 0})
	if b.InFlightInstrs() != 30 {
		t.Fatalf("in-flight %d, want 30", b.InFlightInstrs())
	}
	for now := int64(0); b.InFlightInstrs() > 0; now++ {
		if now > 100 {
			t.Fatal("window never drained")
		}
		b.Tick(now)
	}
	if !b.Drain() {
		t.Fatal("window should be empty")
	}
}

func TestWrongPathNotRetired(t *testing.T) {
	b := New(cfg())
	b.Push(Group{ID: 1, NInstr: 3, FetchDone: 0})
	b.Push(Group{ID: 2, NInstr: 3, FetchDone: 0, WrongPath: true})
	for now := int64(0); now < 20; now++ {
		b.Tick(now)
	}
	if b.Retired() != 3 {
		t.Fatalf("wrong-path instructions retired: %d", b.Retired())
	}
	if b.RetiredGroups() != 1 {
		t.Fatalf("wrong-path group counted: %d", b.RetiredGroups())
	}
}

func TestSquashDropsYounger(t *testing.T) {
	b := New(cfg())
	b.Push(Group{ID: 1, NInstr: 3, FetchDone: 0})
	b.Push(Group{ID: 2, NInstr: 3, FetchDone: 1, WrongPath: true})
	b.Push(Group{ID: 3, NInstr: 3, FetchDone: 2, WrongPath: true})
	dropped := b.Squash(1)
	if dropped != 2 {
		t.Fatalf("dropped %d, want 2", dropped)
	}
	if b.InFlightInstrs() != 3 {
		t.Fatalf("in-flight %d after squash, want 3", b.InFlightInstrs())
	}
	for now := int64(0); now < 20; now++ {
		b.Tick(now)
	}
	if b.Retired() != 3 {
		t.Fatalf("retired %d, want 3", b.Retired())
	}
}

func TestSquashKeepsOlderAndSelf(t *testing.T) {
	b := New(cfg())
	b.Push(Group{ID: 5, NInstr: 2, FetchDone: 0})
	b.Push(Group{ID: 6, NInstr: 2, FetchDone: 0})
	if d := b.Squash(6); d != 0 {
		t.Fatalf("squash dropped older/self groups: %d", d)
	}
}

func TestFetchDoneMonotonicityEnforced(t *testing.T) {
	b := New(cfg())
	b.Push(Group{ID: 1, NInstr: 1, FetchDone: 100})
	b.Push(Group{ID: 2, NInstr: 1, FetchDone: 50}) // clamped to 100
	resolved, _ := b.Tick(112)
	if len(resolved) != 2 {
		t.Fatalf("both groups should resolve at 112, got %v", resolved)
	}
}

func TestPushPanicsOnDuplicateID(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := New(cfg())
	b.Push(Group{ID: 3, NInstr: 1})
	b.Push(Group{ID: 3, NInstr: 1})
}

func TestThroughputBound(t *testing.T) {
	// With everything instantly fetched, IPC caps at RetireWidth.
	b := New(cfg())
	id := uint64(0)
	now := int64(0)
	for b.Retired() < 3000 {
		for b.InFlightInstrs() < 60 {
			id++
			b.Push(Group{ID: id, NInstr: 6, FetchDone: now})
		}
		now++
		b.Tick(now)
	}
	ipc := float64(b.Retired()) / float64(now)
	if ipc > 3.01 {
		t.Fatalf("IPC %v exceeds retire width", ipc)
	}
	if ipc < 2.5 {
		t.Fatalf("IPC %v unexpectedly low for a perfect front end", ipc)
	}
}

func TestNextEventTracksOldestUnreportedResolution(t *testing.T) {
	b := New(cfg())
	if b.NextEvent() != math.MaxInt64 {
		t.Fatal("empty window must report no event")
	}
	b.Push(Group{ID: 1, NInstr: 2, FetchDone: 10})
	b.Push(Group{ID: 2, NInstr: 2, FetchDone: 15})
	if ev := b.NextEvent(); ev != 22 {
		t.Fatalf("next event = %d, want first resolveAt 22", ev)
	}
	b.Tick(22) // reports group 1's resolution
	if ev := b.NextEvent(); ev != 27 {
		t.Fatalf("next event after first resolution = %d, want 27", ev)
	}
	// Drain retirement and report group 2; every resolution is then known.
	for now := int64(23); now < 40; now++ {
		b.Tick(now)
	}
	if b.NextEvent() != math.MaxInt64 {
		t.Fatal("fully resolved window must report no event")
	}
}

// TestFastRetireMatchesPerCycleTicks is the closed-form replay's equivalence
// proof at unit scale: two identical windows, one drained by per-cycle Ticks
// and one by a single FastRetire call, must retire the same groups at the
// same cycles and land in the same final state — including a partially
// retired head when the window ends mid-group.
func TestFastRetireMatchesPerCycleTicks(t *testing.T) {
	build := func() *Backend {
		b := New(cfg())
		b.Push(Group{ID: 1, NInstr: 5, FetchDone: 0})
		b.Push(Group{ID: 2, NInstr: 1, FetchDone: 2})
		b.Push(Group{ID: 3, NInstr: 7, FetchDone: 3, WrongPath: true})
		b.Push(Group{ID: 4, NInstr: 4, FetchDone: 5})
		b.Tick(18) // resolve everything (last resolveAt = 5+12 = 17)
		return b
	}
	for _, to := range []int64{20, 21, 23, 25, 30} {
		slow, fast := build(), build()

		type ev struct {
			id uint64
			at int64
		}
		var slowEvents []ev
		for now := int64(19); now < to; now++ {
			_, retired := slow.Tick(now)
			for _, id := range retired {
				slowEvents = append(slowEvents, ev{id, now})
			}
		}
		end := fast.FastRetire(19, to, 0)
		if end != to {
			t.Fatalf("to=%d: FastRetire ended at %d without a stop target", to, end)
		}
		var fastEvents []ev
		for _, e := range fast.RetiredEvents() {
			fastEvents = append(fastEvents, ev{e.ID, e.At})
		}
		if !reflect.DeepEqual(slowEvents, fastEvents) {
			t.Fatalf("to=%d: retired events diverge: per-cycle %v, fast %v", to, slowEvents, fastEvents)
		}
		if slow.Retired() != fast.Retired() || slow.RetiredGroups() != fast.RetiredGroups() ||
			slow.InFlightInstrs() != fast.InFlightInstrs() || slow.Retiring() != fast.Retiring() {
			t.Fatalf("to=%d: final state diverges: per-cycle (%d,%d,%d,%t) vs fast (%d,%d,%d,%t)",
				to,
				slow.Retired(), slow.RetiredGroups(), slow.InFlightInstrs(), slow.Retiring(),
				fast.Retired(), fast.RetiredGroups(), fast.InFlightInstrs(), fast.Retiring())
		}
	}
}

// TestFastRetireStopAfterCompletesTheCrossingCycle pins the target-crossing
// contract Run depends on: the replay finishes the cycle that crosses
// stopAfter at full retire width — exactly as a real Tick would — and
// reports end = that cycle + 1.
func TestFastRetireStopAfterCompletesTheCrossingCycle(t *testing.T) {
	b := New(cfg()) // RetireWidth 3
	b.Push(Group{ID: 1, NInstr: 10, FetchDone: 0})
	b.Tick(12) // resolves AND retires width 3 (head is due at its own cycle)

	// Within the replay, stopAfter=4 crosses during its second cycle (3 at
	// 13, 3 more at 14); the crossing cycle still completes at full width,
	// so 6 more instructions retire (9 total) and the replay reports 15.
	end := b.FastRetire(13, 100, 4)
	if end != 15 {
		t.Fatalf("end = %d, want 15 (crossing cycle completes, then stop)", end)
	}
	if b.Retired() != 9 {
		t.Fatalf("retired = %d, want 9 (full width on the crossing cycle)", b.Retired())
	}
}

// retiredMaster returns a backend whose last FastRetire left events behind,
// so its fastRetired scratch has capacity a careless Clone would share, and
// whose window holds three resolved one-instruction groups for a fork's
// FastRetire(33, 34, 0) to retire within that capacity.
func retiredMaster(t *testing.T) *Backend {
	t.Helper()
	b := New(cfg()) // RetireWidth 3
	for id := uint64(1); id <= 6; id++ {
		b.Push(Group{ID: id, NInstr: 1, FetchDone: 0})
	}
	b.Tick(12) // resolves all six, retires 1-3
	b.FastRetire(13, 14, 0)
	if len(b.RetiredEvents()) != 3 {
		t.Fatalf("master FastRetire retired %d groups, want 3", len(b.RetiredEvents()))
	}
	for id := uint64(7); id <= 12; id++ {
		b.Push(Group{ID: id, NInstr: 1, FetchDone: 20})
	}
	b.Tick(32) // resolves 7-12, retires 7-9
	return b
}

func TestCloneRetiredEventsDoNotAlias(t *testing.T) {
	master := retiredMaster(t)
	a, b := master.Clone(), master.Clone()
	a.FastRetire(33, 34, 0)
	b.FastRetire(33, 34, 0)
	ea, eb, em := a.RetiredEvents(), b.RetiredEvents(), master.RetiredEvents()
	if len(ea) == 0 || len(eb) == 0 {
		t.Fatalf("clones retired nothing: %d, %d events", len(ea), len(eb))
	}
	if &ea[0] == &eb[0] || &ea[0] == &em[:1][0] || &eb[0] == &em[:1][0] {
		t.Fatal("clones share RetiredEvents storage with each other or the master")
	}
}

// TestCloneFastRetireConcurrent runs FastRetire on two forks of one master
// at the same time; under -race it catches any shared scratch storage.
func TestCloneFastRetireConcurrent(t *testing.T) {
	master := retiredMaster(t)
	forks := []*Backend{master.Clone(), master.Clone()}
	done := make(chan uint64)
	for _, f := range forks {
		go func(f *Backend) {
			f.FastRetire(33, 34, 0)
			var sum uint64
			for _, e := range f.RetiredEvents() {
				sum += e.ID
			}
			done <- sum
		}(f)
	}
	if a, b := <-done, <-done; a != b || a == 0 {
		t.Fatalf("forks retired different groups: ID sums %d and %d", a, b)
	}
}
