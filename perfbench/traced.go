package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"boomsim"
	"boomsim/internal/cache"
	"boomsim/internal/frontend"
	"boomsim/internal/obs"
	"boomsim/internal/prefetch"
	"boomsim/internal/program"
	"boomsim/internal/scheme"
	"boomsim/internal/sim"
	"boomsim/internal/stats"
)

// Layer span names. A span's self time is its duration minus the part its
// children on the same row cover.
const (
	spanImage   = "program.image"
	spanWarm    = "sim.warm"
	spanFork    = "sim.fork"
	spanMeasure = "frontend.measure"
	spanCollect = "sim.collect"
	spanReport  = "exp.report"
	spanCodec   = "boomsim.codec"
	spanCell    = "sweep.cell"
	spanCall    = "sweep.call"
	spanSim     = "server.sim"
)

// recorder wraps an obs.Collector with the helpers the traced pass needs.
type recorder struct {
	col *obs.Collector
}

func newRecorder() *recorder { return &recorder{col: obs.NewCollector(obs.DefaultMaxSpans)} }

func (r *recorder) add(name string, tid int, start time.Time, dur time.Duration, args ...obs.Arg) {
	r.col.Add(obs.Span{Name: name, Cat: "layer", Start: start, Dur: dur, TID: tid, Args: args})
}

// span times fn and records it.
func (r *recorder) span(name string, tid int, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	r.add(name, tid, start, d)
	return d
}

// selfTimes sums each layer's self time over the spans that start inside
// [from, to]. Spans on one row nest; a span's self time excludes the spans
// it contains on its row.
func selfTimes(spans []obs.Span, from, to time.Time) map[string]time.Duration {
	rows := map[int][]obs.Span{}
	for _, s := range spans {
		if s.Start.Before(from) || s.Start.After(to) {
			continue
		}
		rows[s.TID] = append(rows[s.TID], s)
	}
	self := map[string]time.Duration{}
	for _, row := range rows {
		sort.Slice(row, func(i, j int) bool {
			if !row[i].Start.Equal(row[j].Start) {
				return row[i].Start.Before(row[j].Start)
			}
			return row[i].Dur > row[j].Dur
		})
		var stack []obs.Span
		for _, s := range row {
			for len(stack) > 0 && !s.Start.Before(stack[len(stack)-1].Start.Add(stack[len(stack)-1].Dur)) {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				self[stack[len(stack)-1].Name] -= s.Dur
			}
			self[s.Name] += s.Dur
			stack = append(stack, s)
		}
	}
	return self
}

// pipeline runs cells layer by layer through the exported functions of
// each layer, so every layer can be timed from outside:
//
//	program.image  workload.Profile.Image, once per distinct image
//	sim.warm       scheme build, LLC preload, warm window, stats reset,
//	               once per distinct warm key (what sim.WarmInstance does)
//	sim.fork       scheme.Instance.Clone of the warmed master, every cell
//	frontend.measure  frontend.Engine.Run over the measurement window
//	sim.collect    stats registry and Result assembly
//
// sim.WarmInstance is not called directly because it regenerates the image
// through sim's private image cache, which would build every image twice.
// Masters are kept for the whole pass, as the warm arena keeps them. The
// Results it assembles are checked byte for byte against the untraced pass.
type pipeline struct {
	rec *recorder

	mu      sync.Mutex
	images  map[string]*imageEntry
	masters map[string]*masterEntry

	forks          atomic.Int64 // cells served from an already warmed master
	instrs, cycles atomic.Int64
	skipped        atomic.Int64
	cellNS         atomic.Int64
}

type imageEntry struct {
	once sync.Once
	img  *program.Image
	err  error
}

type masterEntry struct {
	once sync.Once
	inst *scheme.Instance
	used bool
}

func newPipeline(rec *recorder) *pipeline {
	return &pipeline{rec: rec, images: map[string]*imageEntry{}, masters: map[string]*masterEntry{}}
}

func (p *pipeline) image(tid int, c cell, spec sim.Spec) (*program.Image, error) {
	p.mu.Lock()
	e := p.images[c.imageKey()]
	if e == nil {
		e = &imageEntry{}
		p.images[c.imageKey()] = e
	}
	p.mu.Unlock()
	e.once.Do(func() {
		p.rec.span(spanImage, tid, func() { e.img, e.err = spec.Workload.Image(spec.ImageSeed) })
	})
	return e.img, e.err
}

// master returns the warmed master for c and whether another cell had
// already warmed it.
func (p *pipeline) master(tid int, c cell, spec sim.Spec, img *program.Image) (*scheme.Instance, bool) {
	p.mu.Lock()
	e := p.masters[c.warmKey()]
	if e == nil {
		e = &masterEntry{}
		p.masters[c.warmKey()] = e
	}
	reused := e.used
	e.used = true
	p.mu.Unlock()
	e.once.Do(func() {
		p.rec.span(spanWarm, tid, func() { e.inst = warm(spec, img) })
	})
	return e.inst, reused
}

// warm performs the steps of sim's buildWarm on a prebuilt image.
func warm(spec sim.Spec, img *program.Image) *scheme.Instance {
	inst := spec.Scheme.Build(scheme.Env{
		Cfg:       spec.Cfg,
		Img:       img,
		WalkSeed:  spec.WalkSeed,
		Predictor: spec.Predictor,
	})
	inst.Engine.SetCycleSkip(true)
	lines := make([]cache.Line, 0, (img.Limit-img.Base)/64+1)
	for addr := img.Base; addr < img.Limit; addr += 64 {
		lines = append(lines, cache.LineOf(addr))
	}
	inst.Hier.WarmLLC(lines)
	if spec.WarmInstrs > 0 {
		inst.Engine.Run(spec.WarmInstrs, 0)
		inst.Engine.ResetStats()
	}
	return inst
}

// run takes one cell through every layer on row tid.
func (p *pipeline) run(tid int, c cell) (boomsim.Result, error) {
	start := time.Now()
	defer func() {
		d := time.Since(start)
		p.cellNS.Add(int64(d))
		p.rec.add(spanCell, tid, start, d, obs.Arg{Key: "scheme", Value: c.Scheme}, obs.Arg{Key: "workload", Value: c.Workload})
	}()
	spec, err := c.spec()
	if err != nil {
		return boomsim.Result{}, err
	}
	img, err := p.image(tid, c, spec)
	if err != nil {
		return boomsim.Result{}, err
	}
	master, reused := p.master(tid, c, spec, img)
	if reused {
		p.forks.Add(1)
	}
	var inst *scheme.Instance
	p.rec.span(spanFork, tid, func() { inst = master.Clone() })
	if inst == nil {
		return boomsim.Result{}, fmt.Errorf("%s on %s: instance is not clonable", c.Scheme, c.Workload)
	}
	var st frontend.Stats
	p.rec.span(spanMeasure, tid, func() { st = inst.Engine.Run(spec.MeasureInstrs, spec.MaxCycles) })
	p.instrs.Add(int64(st.RetiredInstrs))
	p.cycles.Add(st.Cycles)
	p.skipped.Add(inst.Engine.SkippedCycles())
	var r boomsim.Result
	p.rec.span(spanCollect, tid, func() { r = collect(spec, inst) })
	return r, nil
}

// runAll runs cells on par worker rows (1..par), in index order like
// RunMatrix's pool.
func (p *pipeline) runAll(ctx context.Context, cells []cell, par int) ([]boomsim.Result, error) {
	out := make([]boomsim.Result, len(cells))
	errs := make([]error, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 1; w <= par; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(cells) || ctx.Err() != nil {
					return
				}
				out[i], errs[i] = p.run(tid, cells[i])
			}
		}(w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
	}
	return out, ctx.Err()
}

func (p *pipeline) counts() (images, warms int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.images), len(p.masters)
}

// collect assembles a Result from a measured instance the way sim's
// collectResult and boomsim's newResult do.
func collect(spec sim.Spec, inst *scheme.Instance) boomsim.Result {
	st := inst.Engine.Stats()
	h := inst.Hier.Stats()
	r := boomsim.Result{
		Scheme:           spec.Scheme.Name,
		Workload:         spec.Workload.Name,
		Instructions:     st.RetiredInstrs,
		Cycles:           st.Cycles,
		IPC:              st.IPC(),
		FetchStallCycles: st.FetchStallCycles,
		StallFraction:    st.StallFraction(),
		StallCycles: boomsim.ClassCounts{
			Sequential:    st.StallByClass[0],
			Conditional:   st.StallByClass[1],
			Unconditional: st.StallByClass[2],
		},
		MispredictSquashesPerKI: st.MispredictSquashesPerKI(),
		BTBMissSquashesPerKI:    st.SquashesPerKI(frontend.SquashBTBMiss),
		BTBLookups:              st.BTBLookups,
		BTBMisses:               st.BTBMisses,
		BTBMissRate:             st.BTBMissRate(),
		Prefetches:              h.Prefetches,
		LLCAccesses:             h.LLCAccesses,
		LLCMisses:               h.LLCMisses,
		StorageOverheadKB:       spec.Scheme.StorageOverheadKB,
	}
	if inst.Boom != nil {
		r.PredecodedLines = inst.Boom.Stats().LinesScanned
	}
	if inst.Predec != nil {
		r.PredecodedLines += inst.Predec.LinesDecoded
	}
	if tp, ok := inst.PF.(*prefetch.Temporal); ok {
		r.PrefetchMetaBytes = 5 * (tp.Replayed + tp.Triggers)
	}
	if st.RetiredInstrs > 0 {
		r.L1IMissesPerKI = float64(st.DemandLineMisses) * 1000 / float64(st.RetiredInstrs)
	}
	reg := stats.NewRegistry()
	inst.PublishStats(reg)
	r.Stats = reg.Map()
	return r
}

// codecMicros times json.Marshal plus json.Unmarshal of each Result and
// returns the median in microseconds. Spans land on row 0.
func codecMicros(rec *recorder, results []boomsim.Result) (float64, error) {
	us := make([]float64, 0, len(results))
	for _, r := range results {
		var err error
		d := rec.span(spanCodec, 0, func() {
			var raw []byte
			if raw, err = json.Marshal(r); err == nil {
				var back boomsim.Result
				err = json.Unmarshal(raw, &back)
			}
		})
		if err != nil {
			return 0, fmt.Errorf("result codec: %w", err)
		}
		us = append(us, float64(d)/1e3)
	}
	return median(us), nil
}
