package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"boomsim/internal/obs"
)

// tinyCells are two cells small enough to simulate in milliseconds.
func tinyCells() []cell {
	return []cell{
		{Scheme: "Base", Workload: "Apache", ImageSeed: 3, WalkSeed: 3, Warm: 1_000, Measure: 2_000, Footprint: 128},
		{Scheme: "Boomerang", Workload: "Apache", ImageSeed: 3, WalkSeed: 3, Warm: 1_000, Measure: 2_000, Footprint: 128},
	}
}

func runTiny(t *testing.T, want []string, rec *recorder) childOut {
	t.Helper()
	cells := tinyCells()
	sims, err := simulations(cells)
	if err != nil {
		t.Fatal(err)
	}
	out, err := runMatrix(context.Background(), cells, sims, want, rec)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRecordedDigestsPass(t *testing.T) {
	first := runTiny(t, nil, nil)
	if first.Failed != 0 || len(first.Digests) != 2 {
		t.Fatalf("unrecorded run: failed %d, digests %v, problems %v", first.Failed, first.Digests, first.Problems)
	}
	again := runTiny(t, first.Digests, nil)
	if again.Failed != 0 {
		t.Fatalf("run against its own digests failed: %v", again.Problems)
	}
}

func TestWrongDigestFailsRun(t *testing.T) {
	out := runTiny(t, []string{"0000000000000000", "0000000000000000"}, nil)
	if out.Failed != 2 {
		t.Fatalf("failed = %d with two wrong digests, want 2", out.Failed)
	}
	res := finish(result{Attempted: out.Attempted, Failed: out.Failed}, out.Problems)
	if res.Correct {
		t.Fatal("a run with wrong digests reports correct")
	}
}

// The traced pass drives the layers itself; its Results must be the bytes
// the public API produces.
func TestTracedPassMatchesPublicAPI(t *testing.T) {
	plain := runTiny(t, nil, nil)
	rec := newRecorder()
	traced := runTiny(t, plain.Digests, rec)
	if traced.Failed != 0 {
		t.Fatalf("traced pass differs from the public API: %v", traced.Problems)
	}
	l := traced.Layers
	if l["program.images"] != 1 || l["sim.warms"] != 2 || l["sim.forks"] != 0 {
		t.Errorf("images %v warms %v forks %v, want 1 2 0", l["program.images"], l["sim.warms"], l["sim.forks"])
	}
	if l["frontend.measure_ms"] <= 0 || l["frontend.sim_cycles"] <= 0 {
		t.Errorf("measure_ms %v sim_cycles %v, want both positive", l["frontend.measure_ms"], l["frontend.sim_cycles"])
	}
	if r := l["trace.residual_frac"]; r < 0 || r > 1 {
		t.Errorf("residual_frac = %v, want within [0, 1]", r)
	}
}

func TestSelfTimesSubtractNestedChildren(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []obs.Span{
		{Name: "cell", TID: 1, Start: at(0), Dur: 100 * time.Millisecond},
		{Name: "warm", TID: 1, Start: at(10), Dur: 30 * time.Millisecond},
		{Name: "measure", TID: 1, Start: at(40), Dur: 50 * time.Millisecond},
		{Name: "cell", TID: 2, Start: at(0), Dur: 20 * time.Millisecond},
		{Name: "late", TID: 2, Start: at(500), Dur: time.Millisecond},
	}
	self := selfTimes(spans, t0, at(200))
	want := map[string]time.Duration{"cell": 40 * time.Millisecond, "warm": 30 * time.Millisecond, "measure": 50 * time.Millisecond}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self[%s] = %v, want %v", name, self[name], d)
		}
	}
	if _, ok := self["late"]; ok {
		t.Error("a span starting after the window was counted")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.25); got != 2 {
		t.Errorf("q25 = %v, want 2", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

func TestZipfDrawsInRangeAndSkewed(t *testing.T) {
	z := newZipf(rand.New(rand.NewSource(1)), 100, zipfExponent)
	counts := make([]int, 100)
	for i := 0; i < 10_000; i++ {
		counts[z.draw()]++
	}
	if counts[0] <= counts[50] {
		t.Errorf("rank 0 drawn %d times, rank 50 %d: not skewed", counts[0], counts[50])
	}
}

// With no recorded digests, every served cell is checked against a local
// run of the same configuration.
func TestServiceMixChecksAgainstLocalRuns(t *testing.T) {
	st, err := setupService()
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	out, err := runServiceMix(context.Background(), st, 1, 3, nil, newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed != 0 || out.Attempted == 0 {
		t.Fatalf("attempted %d, failed %d: %v", out.Attempted, out.Failed, out.Problems)
	}
	if got := out.Layers["sweep.calls"]; got != 2*3 {
		t.Errorf("sweep.calls = %v, want 6", got)
	}
}

// The metric and workload lists the program prints must be the ones
// BENCHMARK.json declares.
func TestListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("workloads %v, BENCHMARK.json has %v", workloads, names)
	}
	same := func(what string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, BENCHMARK.json has %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d] = %s (%s), BENCHMARK.json has %s (%s)", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
}
