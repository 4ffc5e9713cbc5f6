package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"boomsim"
)

// identityScheme is one point on the grid's scheme axis: a registry name, or
// an inline declarative config that travels as scheme_config JSON.
type identityScheme struct {
	label  string
	name   string
	inline *boomsim.SchemeConfig
}

// identitySchemes is every registered scheme (this test binary registers
// none of its own, so that is the 18 built-ins) followed by every distinct
// inline scheme_configs entry of the checked-in experiment specs — the
// configs a distributed RunExperiment ships to workers verbatim.
func identitySchemes(t *testing.T) []identityScheme {
	t.Helper()
	var out []identityScheme
	for _, s := range boomsim.Schemes() {
		out = append(out, identityScheme{label: s.Name, name: s.Name})
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "experiments", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	seen := map[string]bool{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var spec struct {
			SchemeConfigs []json.RawMessage `json:"scheme_configs"`
		}
		if err := json.Unmarshal(data, &spec); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for i, raw := range spec.SchemeConfigs {
			cfg, err := boomsim.ParseSchemeConfig(raw)
			if err != nil {
				t.Fatalf("%s: scheme_configs[%d]: %v", path, i, err)
			}
			canon, err := json.Marshal(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if seen[string(canon)] {
				continue
			}
			seen[string(canon)] = true
			spec := filepath.Base(path)
			out = append(out, identityScheme{
				label:  spec[:len(spec)-len(".json")] + ":" + cfg.Name,
				inline: &cfg,
			})
		}
	}
	return out
}

// identityRun is one point on the grid's run-control axis: each of the
// options that shape a run without naming the machine, alone and together.
type identityRun struct {
	name        string
	imageSeed   uint64
	walkSeed    uint64
	warm        uint64
	measure     uint64
	maxCycles   int64
	flightEvery int64
}

func identityRuns() []identityRun {
	def := identityRun{
		imageSeed: boomsim.DefaultImageSeed, walkSeed: boomsim.DefaultWalkSeed,
		warm: boomsim.DefaultWarmInstrs, measure: boomsim.DefaultMeasureInstrs,
	}
	seeds, window, maxCycles, flight, all := def, def, def, def, def
	seeds.name, seeds.imageSeed, seeds.walkSeed = "seeds", 3, 7
	window.name, window.warm, window.measure = "window", 2_000, 8_000
	maxCycles.name, maxCycles.maxCycles = "maxcycles", 50_000
	flight.name, flight.flightEvery = "flight", 1_000
	all = identityRun{name: "all", imageSeed: 3, walkSeed: 7, warm: 2_000, measure: 8_000, maxCycles: 50_000, flightEvery: 1_000}
	def.name = "default"
	return []identityRun{def, seeds, window, maxCycles, flight, all}
}

// identityCell is one full configuration of the grid.
type identityCell struct {
	scheme    identityScheme
	workload  string
	predictor string
	btb       int
	llc       int
	footprint int
	run       identityRun
}

func (c identityCell) String() string {
	pred := c.predictor
	if pred == "" {
		pred = "default"
	}
	return fmt.Sprintf("pred=%s,btb=%d,llc=%d,fp=%d,run=%s", pred, c.btb, c.llc, c.footprint, c.run.name)
}

// options spells the cell through the public API, naming only what differs
// from New's defaults.
func (c identityCell) options() []boomsim.Option {
	var opts []boomsim.Option
	if c.scheme.inline != nil {
		opts = append(opts, boomsim.WithSchemeConfig(*c.scheme.inline))
	} else {
		opts = append(opts, boomsim.WithScheme(c.scheme.name))
	}
	opts = append(opts, boomsim.WithWorkload(c.workload))
	if c.predictor != "" {
		opts = append(opts, boomsim.WithPredictor(c.predictor))
	}
	if c.btb != 0 {
		opts = append(opts, boomsim.WithBTBEntries(c.btb))
	}
	if c.llc != 0 {
		opts = append(opts, boomsim.WithLLCLatency(c.llc))
	}
	if c.footprint != 0 {
		opts = append(opts, boomsim.WithFootprintKB(c.footprint))
	}
	r := c.run
	if r.imageSeed != boomsim.DefaultImageSeed || r.walkSeed != boomsim.DefaultWalkSeed {
		opts = append(opts, boomsim.WithSeeds(r.imageSeed, r.walkSeed))
	}
	if r.warm != boomsim.DefaultWarmInstrs || r.measure != boomsim.DefaultMeasureInstrs {
		opts = append(opts, boomsim.WithWindow(r.warm, r.measure))
	}
	if r.maxCycles != 0 {
		opts = append(opts, boomsim.WithMaxCycles(r.maxCycles))
	}
	if r.flightEvery != 0 {
		opts = append(opts, boomsim.WithFlightRecorder(r.flightEvery))
	}
	return opts
}

// requests spells the cell on the wire twice: full, with every field
// explicit and defaults included (the coordinator's form, immune to a
// worker's own defaults), and sparse, with absent fields standing for New's
// defaults (a hand-written client's form).
func (c identityCell) requests(t *testing.T) (full, sparse RunRequest) {
	t.Helper()
	r := c.run
	imageSeed, walkSeed, warm, measure := r.imageSeed, r.walkSeed, r.warm, r.measure
	full = RunRequest{
		Scheme:        c.scheme.name,
		Workload:      c.workload,
		Predictor:     c.predictor,
		BTBEntries:    c.btb,
		LLCLatency:    c.llc,
		FootprintKB:   c.footprint,
		ImageSeed:     &imageSeed,
		WalkSeed:      &walkSeed,
		WarmInstrs:    &warm,
		MeasureInstrs: &measure,
		MaxCycles:     r.maxCycles,
		FlightEvery:   r.flightEvery,
	}
	if c.scheme.inline != nil {
		raw, err := json.Marshal(c.scheme.inline)
		if err != nil {
			t.Fatal(err)
		}
		full.SchemeConfig = raw
	}
	sparse = full
	if sparse.Scheme == boomsim.DefaultScheme {
		sparse.Scheme = ""
	}
	if sparse.Workload == boomsim.DefaultWorkload {
		sparse.Workload = ""
	}
	if imageSeed == boomsim.DefaultImageSeed && walkSeed == boomsim.DefaultWalkSeed {
		sparse.ImageSeed, sparse.WalkSeed = nil, nil
	}
	if warm == boomsim.DefaultWarmInstrs && measure == boomsim.DefaultMeasureInstrs {
		sparse.WarmInstrs, sparse.MeasureInstrs = nil, nil
	}
	return full, sparse
}

// TestWireRequestKeyIdentity pins the contract the distributed plane's
// caches rest on, over a full-factorial grid of configurations: scheme
// (every built-in by name, every inline config of the checked-in specs) ×
// workload × predictor × BTB size × LLC latency × footprint × run controls.
// For every cell:
//   - boomsim.New accepts the configuration;
//   - its Key belongs to no other cell, so no two configurations can share
//     a journal, result-cache or store entry;
//   - the full and the sparse wire spellings, after a JSON round trip,
//     rebuild on a worker — skipping and per-cycle (-no-skip) alike — a
//     Simulation with the local Key, Fingerprint and resolved metadata, so
//     a cell placed by its coordinator fingerprint runs exactly that cell.
//
// Nothing is simulated; each cell costs a few option resolutions.
func TestWireRequestKeyIdentity(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	control := New(Config{NoCycleSkip: true})
	defer control.Close()
	workers := []*Server{srv, control}

	var (
		predictors = []string{"", "bimodal", "never-taken"}
		btbs       = []int{0, 8192}
		llcs       = []int{0, 18, 60}
		footprints = []int{0, 256}
		runs       = identityRuns()
	)
	owner := map[string]string{}
	for _, sc := range identitySchemes(t) {
		t.Run(sc.label, func(t *testing.T) {
			for _, wl := range boomsim.Workloads() {
				t.Run(wl.Name, func(t *testing.T) {
					for _, pred := range predictors {
						for _, btb := range btbs {
							for _, llc := range llcs {
								for _, fp := range footprints {
									for _, run := range runs {
										cell := identityCell{scheme: sc, workload: wl.Name, predictor: pred, btb: btb, llc: llc, footprint: fp, run: run}
										t.Run(cell.String(), func(t *testing.T) {
											checkWireIdentity(t, workers, owner, sc.label+"/"+wl.Name+"/"+cell.String(), cell)
										})
									}
								}
							}
						}
					}
				})
			}
		})
	}
}

func checkWireIdentity(t *testing.T, workers []*Server, owner map[string]string, id string, cell identityCell) {
	local, err := boomsim.New(cell.options()...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	key := local.Key()
	if prev, dup := owner[key]; dup {
		t.Fatalf("Key %q is shared with %s", key, prev)
	}
	owner[key] = id

	full, sparse := cell.requests(t)
	for _, f := range []struct {
		form string
		req  RunRequest
	}{{"full", full}, {"sparse", sparse}} {
		form, req := f.form, f.req
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var got RunRequest
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		for _, w := range workers {
			remote, err := w.newSim(got)
			if err != nil {
				t.Fatalf("%s request %s: worker rejects it: %v", form, data, err)
			}
			if remote.Key() != key {
				t.Fatalf("%s request (no-skip worker %v) rebuilds a different Key:\n local:  %s\n worker: %s", form, w.cfg.NoCycleSkip, key, remote.Key())
			}
			if remote.Fingerprint() != local.Fingerprint() {
				t.Fatalf("%s request: Fingerprint %s, local %s", form, remote.Fingerprint(), local.Fingerprint())
			}
			if !reflect.DeepEqual(remote.Scheme(), local.Scheme()) || remote.Workload() != local.Workload() {
				t.Fatalf("%s request resolves different metadata:\n local:  %+v %+v\n worker: %+v %+v",
					form, local.Scheme(), local.Workload(), remote.Scheme(), remote.Workload())
			}
		}
	}
}
