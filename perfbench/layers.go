package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"boomsim"
)

// perLayer lists every per-layer metric a traced run prints, with its
// unit. A metric whose layer a workload does not reach reads 0 there.
var perLayer = []metricDef{
	{"program.image_ms", "ms"},
	{"program.images", "count"},
	{"sim.warm_ms", "ms"},
	{"sim.warms", "count"},
	{"sim.fork_ms", "ms"},
	{"sim.forks", "count"},
	{"sim.master_mb", "MB"},
	{"frontend.measure_ms", "ms"},
	{"frontend.ns_per_instr", "ns"},
	{"frontend.ns_per_cycle", "ns"},
	{"frontend.skipped_cycle_frac", "fraction"},
	{"frontend.sim_cycles", "count"},
	{"frontend.squashes", "count"},
	{"bpu.btb_lookups", "count"},
	{"cache.demand_accesses", "count"},
	{"cache.llc_accesses", "count"},
	{"cache.prefetches", "count"},
	{"par.idle_frac", "fraction"},
	{"exp.report_ms", "ms"},
	{"boomsim.result_codec_us", "us"},
	{"server.cache_hit_ratio", "fraction"},
	{"server.sim_ms", "ms"},
	{"cluster.overhead_ms", "ms"},
	{"cluster.retries", "count"},
	{"sweep.calls", "count"},
	{"trace.overhead_frac", "fraction"},
	{"trace.residual_frac", "fraction"},
}

type metricDef struct{ name, unit string }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// workCounts sums the exact per-event normalisers over every cell.
func workCounts(m map[string]float64, results []boomsim.Result) {
	for _, r := range results {
		s := r.Stats
		m["frontend.sim_cycles"] += s["frontend.cycles"]
		m["frontend.squashes"] += s["frontend.squashes.direction"] + s["frontend.squashes.target"] + s["frontend.squashes.btb_miss"]
		m["bpu.btb_lookups"] += s["bpu.btb_lookups"]
		m["cache.demand_accesses"] += s["cache.demand_accesses"]
		m["cache.llc_accesses"] += s["cache.llc_accesses"]
		m["cache.prefetches"] += s["cache.prefetches"]
	}
}

// residual is the share of the pass's capacity (wall x rows) that no
// layer's self time covers. Self times plus residual x capacity add up to
// the capacity exactly.
func residual(self map[string]time.Duration, wall time.Duration, rows int) float64 {
	var covered time.Duration
	for _, d := range self {
		covered += d
	}
	return 1 - float64(covered)/(float64(wall)*float64(rows))
}

// pipelineLayers derives the per-layer metrics of a traced local pass
// (paper-claims, matrix-full) run between start and end.
func pipelineLayers(p *pipeline, results []boomsim.Result, start, end time.Time) (map[string]float64, error) {
	wall := end.Sub(start)
	self := selfTimes(p.rec.col.Spans(), start, end)
	m := map[string]float64{}
	images, warms := p.counts()
	m["program.image_ms"] = ms(self[spanImage])
	m["program.images"] = float64(images)
	m["sim.warm_ms"] = ms(self[spanWarm])
	m["sim.warms"] = float64(warms)
	m["sim.fork_ms"] = ms(self[spanFork])
	m["sim.forks"] = float64(p.forks.Load())
	m["frontend.measure_ms"] = ms(self[spanMeasure])
	if n := p.instrs.Load(); n > 0 {
		m["frontend.ns_per_instr"] = float64(self[spanMeasure]) / float64(n)
	}
	if n := p.cycles.Load(); n > 0 {
		m["frontend.ns_per_cycle"] = float64(self[spanMeasure]) / float64(n)
		m["frontend.skipped_cycle_frac"] = float64(p.skipped.Load()) / float64(n)
	}
	workCounts(m, results)
	m["par.idle_frac"] = 1 - float64(p.cellNS.Load())/(float64(wall)*parallelism)
	m["exp.report_ms"] = ms(self[spanReport])
	m["trace.residual_frac"] = residual(self, wall, parallelism)
	var err error
	if m["boomsim.result_codec_us"], err = codecMicros(p.rec, results); err != nil {
		return nil, err
	}
	// Heap the warmed masters hold: live heap with them, less live heap
	// once they are dropped.
	if warms > 0 {
		with := heapMB()
		p.mu.Lock()
		p.masters = nil
		p.mu.Unlock()
		m["sim.master_mb"] = (with - heapMB()) / float64(warms)
	}
	printSelf(self, wall, parallelism)
	return m, nil
}

// serviceLayers derives the per-layer metrics of a traced service-mix pass.
// Its rows are the clients.
func serviceLayers(rec *recorder, calls []call, results []boomsim.Result, start, end time.Time) (map[string]float64, error) {
	wall := end.Sub(start)
	self := selfTimes(rec.col.Spans(), start, end)
	m := map[string]float64{}
	var hits, retries, cells float64
	var busy, sim time.Duration
	overhead := make([]float64, 0, len(calls))
	for _, cl := range calls {
		hits += float64(cl.cacheHits)
		retries += float64(cl.retries)
		cells += float64(len(cl.idx))
		busy += cl.latency
		sim += cl.simTotal
		overhead = append(overhead, ms(cl.latency-cl.simCritical))
	}
	if cells > 0 {
		m["server.cache_hit_ratio"] = hits / cells
	}
	m["server.sim_ms"] = ms(sim)
	m["cluster.overhead_ms"] = median(overhead)
	m["cluster.retries"] = retries
	m["sweep.calls"] = float64(len(calls))
	m["par.idle_frac"] = 1 - float64(busy)/(float64(wall)*serviceClients)
	m["trace.residual_frac"] = residual(self, wall, serviceClients)
	workCounts(m, results)
	var err error
	if m["boomsim.result_codec_us"], err = codecMicros(rec, results); err != nil {
		return nil, err
	}
	printSelf(self, wall, serviceClients)
	return m, nil
}

// printSelf writes the self-time breakdown to standard error: each layer's
// self time and the residual, which together make up wall x rows.
func printSelf(self map[string]time.Duration, wall time.Duration, rows int) {
	names := make([]string, 0, len(self))
	var covered time.Duration
	for n, d := range self {
		names = append(names, n)
		covered += d
	}
	sort.Strings(names)
	capacity := wall * time.Duration(rows)
	fmt.Fprintf(os.Stderr, "perfbench: traced wall %.3fs x %d rows = %.3fs\n", wall.Seconds(), rows, capacity.Seconds())
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "perfbench:   %-18s self %10.1f ms  %5.1f%%\n", n, ms(self[n]), 100*float64(self[n])/float64(capacity))
	}
	fmt.Fprintf(os.Stderr, "perfbench:   %-18s      %10.1f ms  %5.1f%%\n", "residual", ms(capacity-covered), 100*float64(capacity-covered)/float64(capacity))
}

// writeTrace exports the recorded spans as Chrome trace JSON.
func writeTrace(rec *recorder, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := rec.col.WriteChromeTrace(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: trace written to %s\n", path)
	return nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
