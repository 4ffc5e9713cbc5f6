package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"boomsim"
	"boomsim/internal/exp"
)

// readyLine is the line a child prints once set-up is done; the parent
// times set-up from process start to this line.
const readyLine = "perfbench: ready"

// parallelism is the worker count of every local sweep, matching the
// 2-vCPU reference host.
const parallelism = 2

// childOut is a child's report, printed as its last line of output.
type childOut struct {
	WallS     float64            `json:"wall_s"`
	Cells     int                `json:"cells"`
	Instrs    uint64             `json:"instrs"`
	CallsMS   []float64          `json:"calls_ms"`
	RSSMB     float64            `json:"rss_mb"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Digests   []string           `json:"digests,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

// fail counts n failed cells and keeps the first few reasons.
func (o *childOut) fail(n int, format string, args ...any) {
	o.Failed += n
	if len(o.Problems) < 8 {
		o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
	}
}

// checkCell applies the checks every cell must pass: its digest matches
// the recorded one when there is one, and the invariants always hold.
func (o *childOut) checkCell(c cell, r boomsim.Result, want string) string {
	d := digest(r)
	switch {
	case want != "" && d != want:
		o.fail(1, "%s on %s: result digest %s, recorded %s", c.Scheme, c.Workload, d, want)
	case r.Instructions < c.Measure || r.IPC <= 0:
		o.fail(1, "%s on %s: %d instructions at IPC %g, window %d", c.Scheme, c.Workload, r.Instructions, r.IPC, c.Measure)
	case r.Stats["frontend.retired_instrs"] != float64(r.Instructions):
		o.fail(1, "%s on %s: frontend.retired_instrs %g != instructions %d", c.Scheme, c.Workload, r.Stats["frontend.retired_instrs"], r.Instructions)
	}
	return d
}

// digest is the first 16 hex digits of the SHA-256 of v's JSON encoding.
func digest(v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8])
}

// runChild is one fresh process: set up the workload, print readyLine,
// and, unless mode is "setup", run the timed phase and print a childOut.
//
// A traced child writes its spans as Chrome trace JSON to traceOut.
func runChild(ctx context.Context, workload string, seed uint64, seconds int, mode, traceOut string) error {
	book, err := loadBook()
	if err != nil {
		return err
	}
	var rec *recorder
	if mode == "traced" {
		rec = newRecorder()
	}
	var run func() (childOut, error)
	switch workload {
	case "matrix-full":
		grid := matrixCells()
		if book.Matrix != nil && len(book.Matrix) != len(grid) {
			return fmt.Errorf("digests.json lists %d matrix-full cells, the grid has %d", len(book.Matrix), len(grid))
		}
		var cells []cell
		var want []string
		for _, i := range order(seed, len(grid)) {
			cells = append(cells, grid[i])
			if book.Matrix != nil {
				want = append(want, book.Matrix[i])
			}
		}
		sims, err := simulations(cells)
		if err != nil {
			return err
		}
		run = func() (childOut, error) { return runMatrix(ctx, cells, sims, want, rec) }
	case "paper-claims":
		specs, err := loadClaims(seed)
		if err != nil {
			return err
		}
		run = func() (childOut, error) { return runClaims(ctx, specs, book.Claims, rec) }
	case "service-mix":
		st, err := setupService()
		if err != nil {
			return err
		}
		defer st.close()
		run = func() (childOut, error) {
			return runServiceMix(ctx, st, seed, callsPerSecond*seconds, book.Service, rec)
		}
	default:
		return fmt.Errorf("unknown workload %q", workload)
	}
	fmt.Println(readyLine)
	if mode == "setup" {
		return nil
	}
	out, err := run()
	if err != nil {
		return err
	}
	out.RSSMB, err = peakRSSMB()
	if err != nil {
		return err
	}
	if rec != nil {
		if err := writeTrace(rec, traceOut); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

func simulations(cells []cell) ([]*boomsim.Simulation, error) {
	sims := make([]*boomsim.Simulation, len(cells))
	for i, c := range cells {
		var err error
		if sims[i], err = c.simulation(); err != nil {
			return nil, err
		}
	}
	return sims, nil
}

func runMatrix(ctx context.Context, cells []cell, sims []*boomsim.Simulation, want []string, rec *recorder) (childOut, error) {
	var (
		out     childOut
		results []boomsim.Result
		err     error
		p       *pipeline
	)
	start := time.Now()
	if rec != nil {
		p = newPipeline(rec)
		results, err = p.runAll(ctx, cells, parallelism)
	} else {
		results, err = boomsim.RunMatrix(ctx, sims, boomsim.WithParallelism(parallelism))
	}
	end := time.Now()
	if err != nil {
		return out, err
	}
	out.WallS = end.Sub(start).Seconds()
	out.CallsMS = []float64{out.WallS * 1e3}
	out.Digests = checkCells(&out, cells, results, want)
	if p != nil {
		out.Layers, err = pipelineLayers(p, results, start, end)
	}
	return out, err
}

// checkCells checks every cell of a sweep and returns the result digests.
func checkCells(out *childOut, cells []cell, results []boomsim.Result, want []string) []string {
	if want != nil && len(want) != len(cells) {
		out.fail(0, "recorded digests list %d cells, workload has %d", len(want), len(cells))
		want = nil
	}
	digests := make([]string, len(results))
	for i, r := range results {
		w := ""
		if want != nil {
			w = want[i]
		}
		digests[i] = out.checkCell(cells[i], r, w)
		out.Instrs += r.Instructions
	}
	out.Cells += len(cells)
	out.Attempted += len(cells)
	return digests
}

func runClaims(ctx context.Context, specs []boomsim.ExperimentSpec, want map[string]string, rec *recorder) (childOut, error) {
	var out childOut
	var (
		p   *pipeline
		all []boomsim.Result
	)
	if rec != nil {
		p = newPipeline(rec)
	}
	start := time.Now()
	for i := range specs {
		spec := &specs[i]
		cells, coords := claimCells(spec)
		var rep *boomsim.ExperimentReport
		if p != nil {
			results, err := p.runAll(ctx, cells, parallelism)
			if err != nil {
				return out, fmt.Errorf("%s: %w", spec.Name, err)
			}
			checkCells(&out, cells, results, nil)
			all = append(all, results...)
			p.rec.span(spanReport, 0, func() {
				for j := range coords {
					coords[j].Metrics = flatten(results[j])
				}
				rep, err = exp.BuildReport(spec, append([]string{spec.Baseline}, spec.Candidates...), coords)
			})
			if err != nil {
				return out, fmt.Errorf("%s: %w", spec.Name, err)
			}
		} else {
			var err error
			rep, err = boomsim.RunExperiment(ctx, *spec,
				boomsim.WithExperimentParallelism(parallelism), boomsim.WithExperimentTimestamp(""))
			if err != nil {
				return out, err
			}
			out.Cells += len(cells)
			out.Attempted += len(cells)
			for _, c := range cells {
				out.Instrs += c.Measure
			}
		}
		d := digest(rep)
		out.Digests = append(out.Digests, d)
		switch {
		case want[spec.Name] != "" && d != want[spec.Name]:
			out.fail(len(cells), "%s: report digest %s, recorded %s", spec.Name, d, want[spec.Name])
		case rep.Verdict != boomsim.VerdictPass:
			out.fail(len(cells), "%s: verdict %s, the checked-in spec passes", spec.Name, rep.Verdict)
		case rep.Header.Cells != len(cells):
			out.fail(len(cells), "%s: report covers %d cells, expected %d", spec.Name, rep.Header.Cells, len(cells))
		}
	}
	end := time.Now()
	out.WallS = end.Sub(start).Seconds()
	out.CallsMS = []float64{out.WallS * 1e3}
	if p == nil {
		return out, nil
	}
	var err error
	out.Layers, err = pipelineLayers(p, all, start, end)
	return out, err
}

func runServiceMix(ctx context.Context, st *serviceSetup, seed uint64, callsPerClient int, want map[string]string, rec *recorder) (childOut, error) {
	var out childOut
	start := time.Now()
	calls, err := runService(ctx, st, seed, callsPerClient, rec)
	end := time.Now()
	if err != nil {
		return out, err
	}
	out.WallS = end.Sub(start).Seconds()
	var results []boomsim.Result
	unrecorded := map[int]map[string]bool{} // pool index -> digests served
	for _, cl := range calls {
		out.Attempted += len(cl.idx)
		out.CallsMS = append(out.CallsMS, float64(cl.latency)/1e6)
		if cl.err != nil {
			out.fail(len(cl.idx), "call failed: %v", cl.err)
			continue
		}
		for i, r := range cl.results {
			c := cl.idx[i]
			w, ok := want[fingerprint16(st.sims[c])]
			d := out.checkCell(st.pool[c], r, w)
			if !ok {
				if unrecorded[c] == nil {
					unrecorded[c] = map[string]bool{}
				}
				unrecorded[c][d] = true
			}
			out.Cells++
			out.Instrs += r.Instructions
			results = append(results, r)
		}
	}
	// Cells with no recorded digest must match a local run of the same
	// configuration byte for byte.
	for c, served := range unrecorded {
		local, err := st.sims[c].Run(ctx)
		if err != nil {
			return out, err
		}
		delete(served, digest(local))
		if len(served) > 0 {
			out.fail(len(served), "%s on %s: served result differs from a local run", st.pool[c].Scheme, st.pool[c].Workload)
		}
	}
	if rec == nil {
		return out, nil
	}
	out.Layers, err = serviceLayers(rec, calls, results, start, end)
	return out, err
}

func fingerprint16(s *boomsim.Simulation) string { return s.Fingerprint()[:16] }

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// heapMB is the live heap after a full collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
