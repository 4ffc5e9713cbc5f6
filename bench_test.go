// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation. Each figure benchmark runs its checked-in experiment spec
// (testdata/experiments/) through RunExperiment, narrowed in code to bench
// scale, and reports the figure's headline quantity as a custom metric, so
// `go test -bench=.` both exercises the full pipeline and prints the
// reproduced numbers.
//
// The specs themselves are the full figures: `go run ./cmd/boomctl
// experiment testdata/experiments/<spec>.json` regenerates one with its
// criteria and confidence intervals; see EXPERIMENTS.md for the recorded
// paper-vs-measured comparison.
package boomsim_test

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"boomsim"
	"boomsim/internal/frontend"
	"boomsim/internal/scheme"
	"boomsim/internal/sim"
	"boomsim/internal/workload"
)

// benchWorkloads are the two contrasting bench-scale workloads: a web front
// end and the BTB-heavy OLTP.
var benchWorkloads = []string{"Apache", "DB2"}

// benchExperiment runs the named checked-in spec at bench scale: the two
// bench workloads at a 768KB footprint, 150K warm + 500K measured
// instructions, seed 1. narrow may further restrict the spec (for example
// to one LLC latency) before it runs. Verdicts are not the benchmark's
// concern.
func benchExperiment(b *testing.B, name string, narrow func(*boomsim.ExperimentSpec)) *boomsim.ExperimentReport {
	b.Helper()
	spec, err := boomsim.LoadExperimentSpec(filepath.Join(experimentsDir, name+".json"))
	if err != nil {
		b.Fatal(err)
	}
	spec.Workloads = benchWorkloads
	spec.Seeds = []uint64{1}
	spec.Window = &boomsim.ExperimentWindow{Warm: 150_000, Measure: 500_000}
	matrix := boomsim.ExperimentMatrix{}
	if spec.Matrix != nil {
		matrix = *spec.Matrix
	}
	matrix.FootprintKB = []int{768}
	spec.Matrix = &matrix
	if narrow != nil {
		narrow(&spec)
	}
	r, err := boomsim.RunExperiment(context.Background(), spec, boomsim.WithExperimentTimestamp(""))
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// atLLC narrows a spec's LLC-latency axis to one point.
func atLLC(cycles int) func(*boomsim.ExperimentSpec) {
	return func(s *boomsim.ExperimentSpec) { s.Matrix.LLCLatency = []int{cycles} }
}

// benchAvg is a metric's mean over the bench workloads for one scheme — the
// "Avg" row of the paper's figures. The report runs one matrix point.
func benchAvg(b *testing.B, r *boomsim.ExperimentReport, scheme, metric string) float64 {
	b.Helper()
	var sum float64
	for _, wl := range benchWorkloads {
		sum += reportMean(b, r, scheme, wl, 0, metric)
	}
	return sum / float64(len(benchWorkloads))
}

// BenchmarkFig1_Opportunity regenerates Figure 1: the speedup available from
// a perfect L1-I and from adding a perfect BTB (paper: +11-47% and +6-40%).
func BenchmarkFig1_Opportunity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchExperiment(b, "fig1-opportunity", nil)
		b.ReportMetric(benchAvg(b, r, "Perfect L1-I", "speedup"), "perfectL1I_speedup")
		b.ReportMetric(benchAvg(b, r, "Perfect L1-I + BTB", "speedup"), "perfectCF_speedup")
	}
}

// BenchmarkFig2_PredictorSweep regenerates Figure 2 at a 30-cycle LLC:
// FDIP coverage under TAGE / bimodal / never-taken vs PIF (paper:
// FDIP+TAGE tracks PIF; even never-taken retains much of the coverage).
func BenchmarkFig2_PredictorSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchExperiment(b, "fig2-predictor", atLLC(30))
		b.ReportMetric(benchAvg(b, r, "FDIP", "coverage"), "fdip_tage_cov")
		b.ReportMetric(benchAvg(b, r, "PIF", "coverage"), "pif_cov")
		b.ReportMetric(benchAvg(b, r, "FDIP Never-Taken", "coverage"), "fdip_nt_cov")
	}
}

// BenchmarkFig3_MissBreakdown regenerates Figure 3: the miss-cycle
// breakdown (paper: sequential misses are 40-54% of the baseline's total).
func BenchmarkFig3_MissBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchExperiment(b, "fig3-miss-breakdown", nil)
		// pct averages, over the bench workloads, scheme's stall cycles of
		// the given classes per instruction as a percentage of Base's.
		pct := func(scheme string, classes ...string) float64 {
			var sum float64
			for _, wl := range benchWorkloads {
				for _, class := range classes {
					sum += stallShare(b, r, scheme, wl, class)
				}
			}
			return 100 * sum / float64(len(benchWorkloads))
		}
		b.ReportMetric(pct("Base", "stall_cycles_sequential"), "base_seq_pct")
		all := []string{"stall_cycles_sequential", "stall_cycles_conditional", "stall_cycles_unconditional"}
		b.ReportMetric(pct("FDIP", all...), "fdip2k_total_pct")
		b.ReportMetric(pct("FDIP 32KBTB", all...), "fdip32k_total_pct")
	}
}

// BenchmarkFig4_BranchDistance regenerates Figure 4: the taken-conditional
// branch distance CDF (paper: ~92% within 4 cache blocks). Figure 4 is a
// property of the code images and their walks, not of any scheme, so it
// measures the walker directly (the CDF `boomtrace -dynamic` prints).
func BenchmarkFig4_BranchDistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var sum float64
		for _, name := range benchWorkloads {
			w, _ := workload.ByName(name)
			w.Gen.FootprintKB = 768
			img, err := w.Image(1)
			if err != nil {
				b.Fatal(err)
			}
			st := workload.Measure(workload.NewWalker(img, 1), 300_000, 9)
			sum += workload.CDF(st.TakenCondDist)[4]
		}
		b.ReportMetric(sum/float64(len(benchWorkloads)), "cdf_at_4_blocks")
	}
}

// BenchmarkFig5_BTBSweep regenerates Figure 5: FDIP coverage vs BTB size
// (paper: 32K -> 2K loses ~12 points of coverage).
func BenchmarkFig5_BTBSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchExperiment(b, "fig5-btb-size", atLLC(30))
		b.ReportMetric(benchAvg(b, r, "FDIP", "coverage"), "btb2k_cov")
		b.ReportMetric(benchAvg(b, r, "FDIP 32KBTB", "coverage"), "btb32k_cov")
	}
}

// BenchmarkFig7_Squashes regenerates Figure 7: squashes per kilo-instruction
// (paper: Boomerang and Confluence eliminate >85% of BTB-miss squashes).
func BenchmarkFig7_Squashes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchExperiment(b, "fig7-squashes", atLLC(30))
		b.ReportMetric(benchAvg(b, r, "FDIP", "btb_miss_squashes_per_ki"), "fdip_btbmiss_ki")
		b.ReportMetric(benchAvg(b, r, "Boomerang", "btb_miss_squashes_per_ki"), "boomerang_btbmiss_ki")
		b.ReportMetric(benchAvg(b, r, "Confluence", "btb_miss_squashes_per_ki"), "confluence_btbmiss_ki")
	}
}

// BenchmarkFig8_Coverage regenerates Figure 8 from the Figures 7-9 lineup
// spec: front-end stall cycle coverage (paper: Boomerang 61% ~ Confluence
// 60% on average).
func BenchmarkFig8_Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchExperiment(b, "fig7-squashes", atLLC(30))
		b.ReportMetric(benchAvg(b, r, "Boomerang", "coverage"), "boomerang_cov")
		b.ReportMetric(benchAvg(b, r, "Confluence", "coverage"), "confluence_cov")
		b.ReportMetric(benchAvg(b, r, "FDIP", "coverage"), "fdip_cov")
	}
}

// BenchmarkFig9_Speedup regenerates Figure 9 from the Figures 7-9 lineup
// spec: speedup over the no-prefetch baseline (paper: Boomerang 1.28x
// average, ~1% over Confluence).
func BenchmarkFig9_Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchExperiment(b, "fig7-squashes", atLLC(30))
		b.ReportMetric(benchAvg(b, r, "Boomerang", "speedup"), "boomerang_speedup")
		b.ReportMetric(benchAvg(b, r, "Confluence", "speedup"), "confluence_speedup")
		b.ReportMetric(benchAvg(b, r, "FDIP", "speedup"), "fdip_speedup")
	}
}

// BenchmarkFig10_Throttle regenerates Figure 10: Boomerang's next-N-block
// sensitivity (paper: next-2 is the best average; DB2 gains ~12%).
func BenchmarkFig10_Throttle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchExperiment(b, "fig10-throttle", nil)
		b.ReportMetric(benchAvg(b, r, "Boomerang-N0", "speedup"), "throttle0_speedup")
		b.ReportMetric(benchAvg(b, r, "Boomerang", "speedup"), "throttle2_speedup")
	}
}

// BenchmarkFig11_LowLatency regenerates Figure 11 from the lineup spec's
// crossbar point: the schemes at an 18-cycle LLC round trip (paper: same
// ordering, smaller gains).
func BenchmarkFig11_LowLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchExperiment(b, "fig7-squashes", atLLC(18))
		b.ReportMetric(benchAvg(b, r, "Boomerang", "speedup"), "boomerang_speedup_18c")
		b.ReportMetric(benchAvg(b, r, "Confluence", "speedup"), "confluence_speedup_18c")
	}
}

// BenchmarkStorage_Costs reports the Section VI-D storage comparison from
// the registry's declarative accounting (paper: Boomerang 540 bytes vs
// 200KB+ for temporal streaming).
func BenchmarkStorage_Costs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, c := range []struct{ scheme, metric string }{
			{"Boomerang", "boomerang_kb"}, {"PIF", "pif_kb"},
		} {
			info, err := boomsim.LookupScheme(c.scheme)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(info.StorageOverheadKB, c.metric)
		}
	}
}

// BenchmarkSimulatorThroughput measures steady-state simulation speed:
// simulated instructions per wall-clock second for the Boomerang
// configuration. Setup (image generation, scheme construction, LLC preload)
// and the warm-up window run before the timer starts — their cost is
// reported separately as setup_ms — so the timed region is only the
// measured loop and the MIPS headline means the same thing at every
// -benchtime. Run it with a large -benchtime (e.g. -benchtime=2000000x, one
// op per simulated instruction) so the loop dominates timer granularity;
// -benchmem pins its zero-allocation contract (0 allocs/op).
func BenchmarkSimulatorThroughput(b *testing.B) {
	apache, _ := workload.ByName("Apache")
	apache.Gen.FootprintKB = 768
	spec := sim.DefaultSpec(scheme.Boomerang(), apache)
	spec.WarmInstrs = 50_000

	setupStart := time.Now()
	inst, err := sim.WarmInstance(spec)
	if err != nil {
		b.Fatal(err)
	}
	setup := time.Since(setupStart)

	// One benchmark op = one simulated instruction, floored so a 1x probe
	// run still simulates enough to produce a meaningful rate.
	instrs := uint64(b.N)
	if instrs < 100_000 {
		instrs = 100_000
	}
	b.ResetTimer()
	inst.Engine.Run(instrs, 0)
	b.StopTimer()
	b.ReportMetric(float64(setup.Milliseconds()), "setup_ms")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(instrs)/secs/1e6, "MIPS")
	}
}

// BenchmarkSimulatorThroughputRecorded is the flight recorder's overhead
// control: the same measured loop with the recorder attached at a 10K-cycle
// epoch. BenchmarkSimulatorThroughput above stays recorder-off — that is the
// number benchgate's ns/instr regression gate protects — so any recorder
// cost shows up here as a visible MIPS delta, never as a silent regression
// of the gated headline.
func BenchmarkSimulatorThroughputRecorded(b *testing.B) {
	apache, _ := workload.ByName("Apache")
	apache.Gen.FootprintKB = 768
	spec := sim.DefaultSpec(scheme.Boomerang(), apache)
	spec.WarmInstrs = 50_000

	inst, err := sim.WarmInstance(spec)
	if err != nil {
		b.Fatal(err)
	}

	instrs := uint64(b.N)
	if instrs < 100_000 {
		instrs = 100_000
	}
	inst.Engine.StartFlightRecorder(10_000, 0)
	b.ResetTimer()
	inst.Engine.Run(instrs, 0)
	b.StopTimer()
	epochs := inst.Engine.StopFlightRecorder()
	b.ReportMetric(float64(len(epochs)), "epochs")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(instrs)/secs/1e6, "MIPS")
	}
}

// BenchmarkStallHeavy measures event-horizon cycle skipping on the regime it
// exists for: the no-prefetch baseline against a 20× LLC round trip (the high-latency
// end of the Fig 11 sweep regime), where the front end spends the overwhelming majority
// of cycles stalled on fills and a per-cycle loop burns a full Tick per
// stall. One op = one simulated instruction, warmed before the timer like
// BenchmarkSimulatorThroughput. Beyond wall-clock it reports
// stall_ns_per_instr (this regime's headline cost) and skipped_cycle_pct
// (the fraction of simulated cycles fast-forwarded rather than ticked).
// BenchmarkStallHeavyNoSkip is the per-cycle control — byte-identical
// results, no skipping — so the ratio of the two stall_ns_per_instr values
// is the skip's speedup; benchgate records both in BENCH_<pr>.json.
func BenchmarkStallHeavy(b *testing.B)       { benchStallHeavy(b, true) }
func BenchmarkStallHeavyNoSkip(b *testing.B) { benchStallHeavy(b, false) }

func benchStallHeavy(b *testing.B, skip bool) {
	apache, _ := workload.ByName("Apache")
	apache.Gen.FootprintKB = 768
	spec := sim.DefaultSpec(scheme.Base(), apache)
	spec.Cfg = spec.Cfg.WithLLCLatency(600)
	spec.WarmInstrs = 50_000
	spec.DisableCycleSkip = !skip

	setupStart := time.Now()
	inst, err := sim.WarmInstance(spec)
	if err != nil {
		b.Fatal(err)
	}
	setup := time.Since(setupStart)

	instrs := uint64(b.N)
	if instrs < 100_000 {
		instrs = 100_000
	}
	b.ResetTimer()
	st := inst.Engine.Run(instrs, 0)
	b.StopTimer()
	b.ReportMetric(float64(setup.Milliseconds()), "setup_ms")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(secs*1e9/float64(instrs), "stall_ns_per_instr")
	}
	if st.Cycles > 0 {
		b.ReportMetric(100*float64(inst.Engine.SkippedCycles())/float64(st.Cycles), "skipped_cycle_pct")
	}
}

// benchMatrixParallelism fixes the matrix worker count so matrix_ms is
// comparable across runs regardless of the host's GOMAXPROCS.
const benchMatrixParallelism = 8

// matrix18x7Sims builds the full 126-cell grid of built-in schemes and
// workloads through the public API at bench scale (reduced footprint and
// window, default seeds).
func matrix18x7Sims(b *testing.B, reuse bool) []*boomsim.Simulation {
	sims := make([]*boomsim.Simulation, 0, len(builtinSchemes)*len(builtinWorkloads))
	for _, w := range builtinWorkloads {
		for _, s := range builtinSchemes {
			sm, err := boomsim.New(
				boomsim.WithScheme(s),
				boomsim.WithWorkload(w),
				boomsim.WithFootprintKB(512),
				boomsim.WithWindow(150_000, 200_000),
				boomsim.WithWarmReuse(reuse),
			)
			if err != nil {
				b.Fatal(err)
			}
			sims = append(sims, sm)
		}
	}
	return sims
}

// runMatrix18x7 times RunMatrix over the full grid and reports the mean
// wall-clock per matrix as matrix_ms. One untimed priming pass runs first so
// the timed iterations measure the steady state a sweep loop actually sees:
// with warm reuse on, every cell forks its arena snapshot instead of
// re-simulating the warm window; with reuse off the priming pass changes
// nothing, keeping the two benchmarks structurally identical.
func runMatrix18x7(b *testing.B, reuse bool) {
	sims := matrix18x7Sims(b, reuse)
	ctx := context.Background()
	if _, err := boomsim.RunMatrix(ctx, sims, boomsim.WithParallelism(benchMatrixParallelism)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := boomsim.RunMatrix(ctx, sims, boomsim.WithParallelism(benchMatrixParallelism)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "matrix_ms")
	}
}

// BenchmarkMatrix18x7 measures the full 18-scheme x 7-workload sweep with
// warm-state reuse on (the default): the headline sub-linear-sweep number
// that benchgate records as matrix_ms in BENCH_<pr>.json and gates.
func BenchmarkMatrix18x7(b *testing.B) { runMatrix18x7(b, true) }

// BenchmarkMatrix18x7NoReuse is the control: the same grid with warm reuse
// disabled, so every cell re-simulates its warm window. The matrix_ms gap
// against BenchmarkMatrix18x7 is the measured win of the snapshot plane.
func BenchmarkMatrix18x7NoReuse(b *testing.B) { runMatrix18x7(b, false) }

// BenchmarkTable2_Workloads sanity-checks that every Table II profile
// builds and executes (the workload substrate itself).
func BenchmarkTable2_Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range workload.Profiles {
			g := w.Gen
			g.FootprintKB = 256
			g.Seed = uint64(i + 1)
			img, err := w.Image(g.Seed)
			if err != nil {
				b.Fatal(err)
			}
			wk := workload.NewWalker(img, 1)
			for j := 0; j < 10_000; j++ {
				wk.Next()
			}
		}
	}
}

// BenchmarkWarmArenaMaster reports the resident footprint of a warm-arena
// master for every built-in scheme on Apache (default footprint), warmed
// 10K and 200K instructions: dense_kb is the warmed instance as built,
// frozen_kb the form the arena keeps it in (scheme.Instance.Freeze). Both
// are live heap bytes after a GC; the image and the LLC template are built
// by an untimed first warm and are shared, so neither is counted. One op =
// one master warmed and frozen.
func BenchmarkWarmArenaMaster(b *testing.B) {
	apache, _ := workload.ByName("Apache")
	for _, warm := range []uint64{10_000, 200_000} {
		for _, s := range scheme.Builtins() {
			b.Run(fmt.Sprintf("warm=%dK/%s", warm/1000, s.Name), func(b *testing.B) {
				spec := sim.DefaultSpec(s, apache)
				spec.WarmInstrs = warm
				if _, err := sim.WarmInstance(spec); err != nil {
					b.Fatal(err)
				}
				var dense, frozen int64
				for i := 0; i < b.N; i++ {
					before := liveHeapBytes()
					inst, err := sim.WarmInstance(spec)
					if err != nil {
						b.Fatal(err)
					}
					dense = liveHeapBytes() - before
					inst.Freeze()
					frozen = liveHeapBytes() - before
					runtime.KeepAlive(inst)
				}
				b.ReportMetric(float64(dense)/1024, "dense_kb")
				b.ReportMetric(float64(frozen)/1024, "frozen_kb")
			})
		}
	}
}

func liveHeapBytes() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// BenchmarkBoomerangVsFDIP reports the paper's headline delta at bench
// scale: Boomerang's gain over FDIP on the BTB-heavy DB2.
func BenchmarkBoomerangVsFDIP(b *testing.B) {
	db2, _ := workload.ByName("DB2")
	db2.Gen.FootprintKB = 768
	for i := 0; i < b.N; i++ {
		spec := sim.DefaultSpec(scheme.FDIP(), db2)
		spec.WarmInstrs = 150_000
		spec.MeasureInstrs = 500_000
		fdip, err := sim.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		spec.Scheme = scheme.Boomerang()
		boom, err := sim.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(boom.IPC/fdip.IPC, "boomerang_over_fdip")
		b.ReportMetric(fdip.Stats.SquashesPerKI(frontend.SquashBTBMiss), "fdip_btbmiss_ki")
		b.ReportMetric(boom.Stats.SquashesPerKI(frontend.SquashBTBMiss), "boom_btbmiss_ki")
	}
}
