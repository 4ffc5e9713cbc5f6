package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"boomsim/internal/frontend"
	"boomsim/internal/scheme"
)

// requireResultsEqual fails unless a and b are byte-identical outcomes:
// every headline field and every registry counter.
func requireResultsEqual(t *testing.T, label string, a, b Result) {
	t.Helper()
	if a.Stats != b.Stats {
		t.Fatalf("%s: Stats differ:\n a=%+v\n b=%+v", label, a.Stats, b.Stats)
	}
	if a.Hier != b.Hier {
		t.Fatalf("%s: Hier stats differ:\n a=%+v\n b=%+v", label, a.Hier, b.Hier)
	}
	if a.IPC != b.IPC {
		t.Fatalf("%s: IPC %v != %v", label, a.IPC, b.IPC)
	}
	if a.PredecodedLines != b.PredecodedLines {
		t.Fatalf("%s: PredecodedLines %d != %d", label, a.PredecodedLines, b.PredecodedLines)
	}
	if a.PrefetchMetaBytes != b.PrefetchMetaBytes {
		t.Fatalf("%s: PrefetchMetaBytes %d != %d", label, a.PrefetchMetaBytes, b.PrefetchMetaBytes)
	}
	if !reflect.DeepEqual(a.Registry.Map(), b.Registry.Map()) {
		t.Fatalf("%s: registries differ:\n a=%v\n b=%v", label, a.Registry.Map(), b.Registry.Map())
	}
}

// runObserved runs spec on m and fails unless the run reports wantSource as
// its warm source.
func runObserved(ctx context.Context, t *testing.T, m *memos, spec Spec, wantSource string) Result {
	t.Helper()
	var src string
	r, err := m.run(ctx, spec, Hooks{OnWarm: func(s string) { src = s }})
	if err != nil {
		t.Fatal(err)
	}
	if src != wantSource {
		t.Fatalf("reuse=%t run reported warm source %q, want %q", spec.ReuseWarm, src, wantSource)
	}
	return r
}

// TestWarmMeasureBoundary pins the invariant the snapshot plane relies on:
// WarmInstance followed by a measured Engine.Run is byte-identical to Run of
// the full spec. The full-spec results themselves are pinned by the golden
// corpus, so this transitively anchors the split run to the goldens.
func TestWarmMeasureBoundary(t *testing.T) {
	w := fastProfile("Apache")
	for _, s := range []scheme.Config{scheme.Base(), scheme.FDIP(), scheme.Boomerang(), scheme.Confluence()} {
		spec := fastSpec(s, w)
		spec.ReuseWarm = false
		full, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := WarmInstance(spec)
		if err != nil {
			t.Fatal(err)
		}
		inst.Engine.Run(spec.MeasureInstrs, spec.MaxCycles)
		requireResultsEqual(t, s.Name, full, collectResult(spec, inst))
	}
}

// TestForkMatchesFreshWarm proves, for every built-in scheme, that a fork of
// a frozen arena master is indistinguishable from a fresh warm — and that
// forking and running a fork leaves the master untouched (a second, later
// fork behaves identically to the first).
func TestForkMatchesFreshWarm(t *testing.T) {
	ctx := context.Background()
	m := newMemos()
	w := fastProfile("DB2")
	for _, s := range scheme.Builtins() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			spec := fastSpec(s, w)
			spec.WarmInstrs = 30_000
			spec.MeasureInstrs = 60_000

			master, err := m.buildMaster(ctx, spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			fork := master.Clone()
			if fork == nil {
				t.Fatalf("%s: instance not clonable", s.Name)
			}
			fresh, err := m.buildWarm(ctx, spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			fork.Engine.Run(spec.MeasureInstrs, spec.MaxCycles)
			fresh.Engine.Run(spec.MeasureInstrs, spec.MaxCycles)
			want := collectResult(spec, fresh)
			requireResultsEqual(t, s.Name+" fork-vs-fresh", collectResult(spec, fork), want)

			// The measured fork must not have written through to the master:
			// a second fork taken afterwards behaves identically.
			fork2 := master.Clone()
			if fork2 == nil {
				t.Fatalf("%s: second fork not clonable", s.Name)
			}
			fork2.Engine.Run(spec.MeasureInstrs, spec.MaxCycles)
			requireResultsEqual(t, s.Name+" refork-vs-fresh", collectResult(spec, fork2), want)
		})
	}
}

// TestConcurrentForksOfFrozenMaster forks one frozen master from 8
// goroutines at once: every fork must measure exactly what a fresh warm
// does (the race detector checks that forking only reads the master and
// the shared LLC template).
func TestConcurrentForksOfFrozenMaster(t *testing.T) {
	ctx := context.Background()
	m := newMemos()
	spec := fastSpec(scheme.Confluence(), fastProfile("Apache"))
	spec.WarmInstrs = 30_000
	spec.MeasureInstrs = 60_000
	master, err := m.buildMaster(ctx, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := m.buildWarm(ctx, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	fresh.Engine.Run(spec.MeasureInstrs, spec.MaxCycles)
	want := collectResult(spec, fresh)

	got := make([]Result, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fork := master.Clone()
			fork.Engine.Run(spec.MeasureInstrs, spec.MaxCycles)
			got[g] = collectResult(spec, fork)
		}()
	}
	wg.Wait()
	for g, r := range got {
		requireResultsEqual(t, fmt.Sprintf("fork %d vs fresh", g), r, want)
	}
}

// TestFrozenMasterDoesNotRun: a frozen master only runs through a Clone;
// running it directly panics with a message saying so, not with an index
// out of range somewhere in the LLC or the walker.
func TestFrozenMasterDoesNotRun(t *testing.T) {
	spec := fastSpec(scheme.Boomerang(), fastProfile("Apache"))
	spec.WarmInstrs = 10_000
	master, err := newMemos().buildMaster(context.Background(), spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "frozen warm master") {
			t.Fatalf("running a frozen master panicked with %q, want a frozen-master message", msg)
		}
	}()
	master.Engine.Run(1_000, 0)
}

// TestLabelsDoNotSplitMasters: the warm key covers model inputs only, so
// Boomerang-N2 — Boomerang under another name — forks the master a
// Boomerang run warmed, and its result still equals a private warm's, under
// its own name.
func TestLabelsDoNotSplitMasters(t *testing.T) {
	ctx := context.Background()
	m := newMemos()
	w := fastProfile("DB2")
	runObserved(ctx, t, m, fastSpec(scheme.Boomerang(), w), "fresh")
	n2 := fastSpec(scheme.BoomerangThrottled(2), w)
	n2.Scheme.Name = "Boomerang-N2"
	shared := runObserved(ctx, t, m, n2, "fork")
	n2.ReuseWarm = false
	private := runObserved(ctx, t, m, n2, "fresh")
	requireResultsEqual(t, "Boomerang-N2 forked from Boomerang vs reuse off", shared, private)
	if shared.SchemeName != "Boomerang-N2" {
		t.Fatalf("SchemeName %q, want Boomerang-N2", shared.SchemeName)
	}
}

// TestRunContextWarmReuse pins that RunContext with reuse on — both the
// arena-miss (build master, measure a fork) and arena-hit (measure a fork of
// the cached master) paths, told apart by their warm source on a private
// arena — matches reuse off exactly.
func TestRunContextWarmReuse(t *testing.T) {
	ctx := context.Background()
	m := newMemos()
	spec := fastSpec(scheme.Boomerang(), fastProfile("Zeus"))
	spec.ReuseWarm = false
	off := runObserved(ctx, t, m, spec, "fresh")
	spec.ReuseWarm = true
	miss := runObserved(ctx, t, m, spec, "fresh")
	hit := runObserved(ctx, t, m, spec, "fork")
	requireResultsEqual(t, "arena miss vs reuse off", miss, off)
	requireResultsEqual(t, "arena hit vs reuse off", hit, off)

	// Chunked execution (a cancellable ctx forces chunking) must not change
	// results either way.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	chunked := runObserved(cctx, t, m, spec, "fork")
	requireResultsEqual(t, "chunked arena hit vs reuse off", chunked, off)
}

// wedgedEngine models an engine that stops retiring: Run consumes its full
// cycle allowance (its bound is absolute, like frontend.Engine's) without
// retiring anything beyond the preset count.
type wedgedEngine struct {
	retired uint64
	cycles  int64
}

func (w *wedgedEngine) Run(target uint64, maxCycles int64) frontend.Stats {
	if maxCycles > 0 && maxCycles > w.cycles {
		w.cycles = maxCycles
	}
	return frontend.Stats{RetiredInstrs: w.retired, Cycles: w.cycles}
}

func TestRunWindowNoProgress(t *testing.T) {
	// A wedged engine under chunking with no cycle bound must surface
	// ErrNoProgress instead of looping forever.
	err := runWindow(context.Background(), &wedgedEngine{}, 1_000, 0, 100, nil)
	if !errors.Is(err, ErrNoProgress) {
		t.Fatalf("wedged engine: got %v, want ErrNoProgress", err)
	}

	// Partial progress that then stops is still a wedge.
	err = runWindow(context.Background(), &wedgedEngine{retired: 500}, 1_000, 0, 100, nil)
	if !errors.Is(err, ErrNoProgress) {
		t.Fatalf("stalled engine: got %v, want ErrNoProgress", err)
	}

	// With a cycle budget the window ends at the budget, as documented —
	// that is a bounded run, not a wedge.
	if err := runWindow(context.Background(), &wedgedEngine{}, 1_000, 5_000, 100, nil); err != nil {
		t.Fatalf("cycle-bounded run: got %v, want nil", err)
	}

	// A healthy real engine is unaffected: full window, no error.
	spec := fastSpec(scheme.Base(), fastProfile("Apache"))
	spec.ReuseWarm = false
	inst, err := WarmInstance(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := runWindow(context.Background(), inst.Engine, 50_000, 0, 10_000, nil); err != nil {
		t.Fatalf("healthy engine: got %v, want nil", err)
	}
}

func TestFirstGenuineError(t *testing.T) {
	genuine := errors.New("simulation exploded")
	wrapped := fmt.Errorf("core 3: %w", context.Canceled)
	cases := []struct {
		name string
		errs []error
		want error
	}{
		{"all nil", []error{nil, nil}, nil},
		{"cancellation before genuine failure", []error{context.Canceled, genuine}, genuine},
		{"genuine failure before cancellation", []error{genuine, context.Canceled}, genuine},
		{"wrapped cancellation before genuine failure", []error{nil, wrapped, genuine}, genuine},
		{"deadline before genuine failure", []error{context.DeadlineExceeded, genuine}, genuine},
		{"only cancellation", []error{nil, wrapped, context.Canceled}, wrapped},
	}
	for _, tc := range cases {
		if got := firstGenuineError(tc.errs); got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRunCMPContextCancellation pins the unified policy end to end: a chip
// run whose cores were all cancelled reports the cancellation (not a
// fabricated success), and the error is the raw context sentinel for the
// public layer to wrap.
func TestRunCMPContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := CMPSpec{Spec: fastSpec(scheme.Base(), fastProfile("Apache")), Cores: 2}
	_, err := RunCMPContext(ctx, spec, Hooks{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
