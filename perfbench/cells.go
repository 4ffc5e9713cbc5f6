package main

import (
	"fmt"
	"math/rand"
	"path/filepath"

	"boomsim"
	"boomsim/internal/config"
	"boomsim/internal/exp"
	"boomsim/internal/sim"
	"boomsim/internal/workload"
)

// cell is one simulation configuration. Every workload is a list of cells;
// the untraced pass turns them into boomsim.Simulations, the traced pass
// into sim.Specs it drives layer by layer.
type cell struct {
	Scheme, Workload    string
	ImageSeed, WalkSeed uint64
	Warm, Measure       uint64
	BTB, LLC, Footprint int
	Predictor           string
}

func (c cell) simulation() (*boomsim.Simulation, error) {
	opts := []boomsim.Option{
		boomsim.WithScheme(c.Scheme),
		boomsim.WithWorkload(c.Workload),
		boomsim.WithSeeds(c.ImageSeed, c.WalkSeed),
		boomsim.WithWindow(c.Warm, c.Measure),
	}
	if c.BTB > 0 {
		opts = append(opts, boomsim.WithBTBEntries(c.BTB))
	}
	if c.LLC > 0 {
		opts = append(opts, boomsim.WithLLCLatency(c.LLC))
	}
	if c.Footprint > 0 {
		opts = append(opts, boomsim.WithFootprintKB(c.Footprint))
	}
	if c.Predictor != "" {
		opts = append(opts, boomsim.WithPredictor(c.Predictor))
	}
	return boomsim.New(opts...)
}

// spec resolves the cell the way boomsim.New does, for the traced pass,
// which builds, warms and forks the instance itself.
func (c cell) spec() (sim.Spec, error) {
	info, err := boomsim.LookupScheme(c.Scheme)
	if err != nil {
		return sim.Spec{}, err
	}
	prof, err := profile(c.Workload)
	if err != nil {
		return sim.Spec{}, err
	}
	if c.Footprint > 0 {
		prof.Gen.FootprintKB = c.Footprint
	}
	cfg := config.Default()
	if c.BTB > 0 {
		cfg = cfg.WithBTB(c.BTB)
	}
	if c.LLC > 0 {
		cfg = cfg.WithLLCLatency(c.LLC)
	}
	return sim.Spec{
		Scheme:        info.Config,
		Workload:      prof,
		Cfg:           cfg,
		ImageSeed:     c.ImageSeed,
		WalkSeed:      c.WalkSeed,
		Predictor:     c.Predictor,
		WarmInstrs:    c.Warm,
		MeasureInstrs: c.Measure,
	}, nil
}

func profile(name string) (workload.Profile, error) {
	if p, ok := workload.ByName(name); ok {
		return p, nil
	}
	if p := workload.SPECLike(); p.Name == name {
		return p, nil
	}
	return workload.Profile{}, fmt.Errorf("unknown workload %q", name)
}

// imageKey and warmKey name what a cell shares with other cells: its code
// image, and its warmed state (everything but the measurement window).
func (c cell) imageKey() string {
	return fmt.Sprintf("%s/%d/%d", c.Workload, c.ImageSeed, c.Footprint)
}

func (c cell) warmKey() string {
	w := c
	w.Measure = 0
	return fmt.Sprintf("%+v", w)
}

// The pinned 18 x 7 grid of the paper's evaluation. Names are fixed here so
// the grid does not follow whatever else is registered in the process.
var (
	matrixSchemes = []string{
		"Base", "Next Line", "DIP", "FDIP", "SHIFT", "Confluence", "Boomerang",
		"PIF", "Perfect L1-I", "Perfect L1-I + BTB", "2-Level BTB", "PhantomBTB",
		"Boomerang-Unthrottled",
		"Boomerang-N0", "Boomerang-N1", "Boomerang-N2", "Boomerang-N4", "Boomerang-N8",
	}
	matrixWorkloads = []string{
		"Nutch", "Streaming", "Apache", "Zeus", "Oracle", "DB2", "SPEC-like",
	}
)

// matrixCells is matrix-full: the whole grid at the default seeds, window
// and footprints, in grid order.
func matrixCells() []cell {
	out := make([]cell, 0, len(matrixSchemes)*len(matrixWorkloads))
	for _, w := range matrixWorkloads {
		for _, s := range matrixSchemes {
			out = append(out, cell{
				Scheme: s, Workload: w,
				ImageSeed: boomsim.DefaultImageSeed,
				WalkSeed:  boomsim.DefaultWalkSeed,
				Warm:      boomsim.DefaultWarmInstrs,
				Measure:   boomsim.DefaultMeasureInstrs,
			})
		}
	}
	return out
}

// order is the submission order the workload seed picks: a seeded shuffle
// of n items. The seed changes when each piece of work runs, not what is
// simulated; see NOTES.md for why.
func order(seed uint64, n int) []int {
	return rand.New(rand.NewSource(int64(seed))).Perm(n)
}

// claimSpecs are the checked-in paper-claim specs paper-claims runs, in
// order.
var claimSpecs = []string{"fig8-speedup", "fig9-coverage", "fig11-llc", "table3-storage"}

const specDir = "testdata/experiments"

// loadClaims parses the checked-in specs, in the order the workload seed
// picks.
func loadClaims(seed uint64) ([]boomsim.ExperimentSpec, error) {
	specs := make([]boomsim.ExperimentSpec, len(claimSpecs))
	for i, j := range order(seed, len(claimSpecs)) {
		name := claimSpecs[j]
		s, err := boomsim.LoadExperimentSpec(filepath.Join(specDir, name+".json"))
		if err != nil {
			return nil, err
		}
		if len(s.SchemeConfigs) > 0 {
			return nil, fmt.Errorf("%s: inline scheme configs are not supported by the traced pass", name)
		}
		specs[i] = s
	}
	return specs, nil
}

// claimCells expands one spec into cells in the order RunExperiment runs
// them: parameter points, then seeds, workloads, schemes.
func claimCells(s *boomsim.ExperimentSpec) ([]cell, []exp.Cell) {
	var cells []cell
	var coords []exp.Cell
	schemes := append([]string{s.Baseline}, s.Candidates...)
	for _, pt := range s.Matrix.Points() {
		for _, seed := range s.Seeds {
			for _, wl := range s.Workloads {
				for _, sc := range schemes {
					c := cell{
						Scheme: sc, Workload: wl, ImageSeed: seed, WalkSeed: seed,
						Warm: boomsim.DefaultWarmInstrs, Measure: boomsim.DefaultMeasureInstrs,
						BTB: pt.BTBEntries, LLC: pt.LLCLatency, Footprint: pt.FootprintKB,
						Predictor: pt.Predictor,
					}
					if s.Window != nil {
						c.Warm, c.Measure = s.Window.Warm, s.Window.Measure
					}
					cells = append(cells, c)
					coords = append(coords, exp.Cell{Scheme: sc, Workload: wl, Seed: seed, Point: pt})
				}
			}
		}
	}
	return cells, coords
}

// flatten projects a Result onto the experiment engine's metric map, as
// RunExperiment does.
func flatten(r boomsim.Result) map[string]float64 {
	m := map[string]float64{
		"ipc":                        r.IPC,
		"instructions":               float64(r.Instructions),
		"cycles":                     float64(r.Cycles),
		"fetch_stall_cycles":         float64(r.FetchStallCycles),
		"stall_fraction":             r.StallFraction,
		"stall_cycles_sequential":    float64(r.StallCycles.Sequential),
		"stall_cycles_conditional":   float64(r.StallCycles.Conditional),
		"stall_cycles_unconditional": float64(r.StallCycles.Unconditional),
		"mispredict_squashes_per_ki": r.MispredictSquashesPerKI,
		"btb_miss_squashes_per_ki":   r.BTBMissSquashesPerKI,
		"btb_lookups":                float64(r.BTBLookups),
		"btb_misses":                 float64(r.BTBMisses),
		"btb_miss_rate":              r.BTBMissRate,
		"l1i_misses_per_ki":          r.L1IMissesPerKI,
		"prefetches":                 float64(r.Prefetches),
		"llc_accesses":               float64(r.LLCAccesses),
		"llc_misses":                 float64(r.LLCMisses),
		"predecoded_lines":           float64(r.PredecodedLines),
		"prefetch_meta_bytes":        float64(r.PrefetchMetaBytes),
		"storage_overhead_kb":        r.StorageOverheadKB,
	}
	for name, v := range r.Stats {
		m[name] = v
	}
	return m
}
