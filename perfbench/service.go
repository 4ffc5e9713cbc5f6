package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"boomsim"
	"boomsim/internal/server"
)

// service-mix shape. Two closed-loop clients each send callsPerSecond *
// seconds sweep calls of 1..maxCallCells cells to two loopback servers with
// one simulation slot each. Cells are drawn by a Zipf law over a fixed
// shuffle of the pool; with the per-server result cache bounded at
// serverCacheEntries, about half of all cells are cache hits, and the share
// settles within the first few dozen calls and stays there.
const (
	serviceClients     = 2
	serviceServers     = 2
	callsPerSecond     = 60 // per client, sized so a run lasts about --seconds
	maxCallCells       = 4
	zipfExponent       = 1.0
	serverCacheEntries = 20
	// serverQueueDepth admits every flight two clients can have open at once
	// (2 clients x 4 cells), so backpressure does not turn into 429 retries
	// on a healthy run.
	serverQueueDepth = 8
	poolOrderSeed    = 1
)

// servicePool is the configurations service-mix draws from: every pinned
// scheme on every workload at a reduced footprint, with four measurement
// windows that share one warm window.
func servicePool() []cell {
	var out []cell
	for _, m := range []uint64{8_000, 16_000, 24_000, 32_000} {
		for _, w := range matrixWorkloads {
			for _, s := range matrixSchemes {
				out = append(out, cell{
					Scheme: s, Workload: w,
					ImageSeed: boomsim.DefaultImageSeed, WalkSeed: boomsim.DefaultWalkSeed,
					Warm: 8_000, Measure: m, Footprint: 256,
				})
			}
		}
	}
	return out
}

// zipf draws pool ranks with P(k) proportional to 1/(k+1)^s.
type zipf struct {
	cum []float64
	rng *rand.Rand
}

func newZipf(rng *rand.Rand, n int, s float64) *zipf {
	cum := make([]float64, n)
	acc := 0.0
	for k := range cum {
		acc += 1 / math.Pow(float64(k+1), s)
		cum[k] = acc
	}
	for k := range cum {
		cum[k] /= acc
	}
	return &zipf{cum: cum, rng: rng}
}

func (z *zipf) draw() int {
	k := sort.SearchFloat64s(z.cum, z.rng.Float64())
	if k >= len(z.cum) {
		k = len(z.cum) - 1
	}
	return k
}

// serviceSetup is what service-mix prepares before its timed phase.
type serviceSetup struct {
	pool      []cell
	sims      []*boomsim.Simulation
	servers   []*server.Server
	https     []*http.Server
	endpoints []string
	served    sync.WaitGroup
}

func setupService() (*serviceSetup, error) {
	st := &serviceSetup{pool: servicePool()}
	for _, c := range st.pool {
		s, err := c.simulation()
		if err != nil {
			return nil, err
		}
		st.sims = append(st.sims, s)
	}
	for i := 0; i < serviceServers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.close()
			return nil, err
		}
		srv := server.New(server.Config{Workers: 1, QueueDepth: serverQueueDepth, CacheEntries: serverCacheEntries})
		hs := &http.Server{Handler: srv.Handler()}
		st.servers = append(st.servers, srv)
		st.https = append(st.https, hs)
		st.endpoints = append(st.endpoints, "http://"+ln.Addr().String())
		st.served.Add(1)
		go func() {
			defer st.served.Done()
			_ = hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
		}()
	}
	return st, nil
}

func (st *serviceSetup) close() {
	for i, hs := range st.https {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = hs.Shutdown(ctx) // a stuck connection only delays exit; Close below ends it
		cancel()
		_ = hs.Close()
		st.servers[i].Close()
	}
	st.served.Wait()
}

// call is one client sweep call as observed by the client.
type call struct {
	client    int
	start     time.Time
	latency   time.Duration
	idx       []int
	results   []boomsim.Result
	err       error
	cacheHits uint64
	retries   uint64
	// simCritical is the worker-side part of the call's critical path and
	// simTotal the summed worker-side job time (traced pass only).
	simCritical time.Duration
	simTotal    time.Duration
}

// runService runs the closed loop. With rec set, each call gets its own
// cluster trace, and the call and its worker-side simulating time are
// recorded as spans on the client's row.
func runService(ctx context.Context, st *serviceSetup, seed uint64, callsPerClient int, rec *recorder) ([]call, error) {
	// The pool's popularity order is fixed; the seed drives only the draws,
	// so every seed offers the same mix of cheap and expensive cells.
	perm := rand.New(rand.NewSource(poolOrderSeed)).Perm(len(st.pool))
	calls := make([][]call, serviceClients)
	errs := make([]error, serviceClients)
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(seed)*1_000_003 + int64(client)))
			z := newZipf(rng, len(st.pool), zipfExponent)
			hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * maxCallCells}}
			defer hc.CloseIdleConnections()
			for k := 0; k < callsPerClient && ctx.Err() == nil; k++ {
				n := 1 + rng.Intn(maxCallCells)
				cl := call{client: client}
				sims := make([]*boomsim.Simulation, n)
				for i := range sims {
					cl.idx = append(cl.idx, perm[z.draw()])
					sims[i] = st.sims[cl.idx[i]]
				}
				if err := sweepCall(ctx, st, hc, sims, &cl, rec); err != nil {
					errs[client] = err
					return
				}
				calls[client] = append(calls[client], cl)
			}
		}(c)
	}
	wg.Wait()
	var out []call
	for _, cs := range calls {
		out = append(out, cs...)
	}
	return out, errors.Join(errs...)
}

// sweepCall is what one boomctl invocation does: build a Cluster over the
// workers, run the sweep, read the coordinator's counters.
func sweepCall(ctx context.Context, st *serviceSetup, hc *http.Client, sims []*boomsim.Simulation, cl *call, rec *recorder) error {
	opts := []boomsim.ClusterOption{boomsim.WithEndpoints(st.endpoints...), boomsim.WithClusterClient(hc)}
	var tr *boomsim.Trace
	if rec != nil {
		tr = boomsim.NewTrace()
		opts = append(opts, boomsim.WithClusterTrace(tr))
	}
	cl.start = time.Now()
	cluster, err := boomsim.NewCluster(opts...)
	if err != nil {
		return err
	}
	cl.results, cl.err = cluster.RunMatrix(ctx, sims)
	cl.latency = time.Since(cl.start)
	cs := cluster.Stats()
	cl.cacheHits, cl.retries = cs.CacheHits, cs.JobsRetried
	if rec == nil {
		return nil
	}
	tid := 1 + cl.client
	rec.add(spanCall, tid, cl.start, cl.latency)
	longest, total, err := workerSimTime(tr)
	if err != nil {
		return err
	}
	cl.simCritical, cl.simTotal = min(longest, cl.latency), total
	if cl.simCritical > 0 {
		rec.add(spanSim, tid, cl.start.Add(cl.latency-cl.simCritical), cl.simCritical)
	}
	return nil
}

// workerSimTime reads a cluster trace back: the longest and the summed
// worker-side job time (the "sim" phase spans, from each job's SimNanos).
// A worker runs a batch's jobs concurrently, so the longest job is the
// worker-side part of the call's critical path.
func workerSimTime(tr *boomsim.Trace) (longest, total time.Duration, err error) {
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		return 0, 0, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return 0, 0, fmt.Errorf("reading cluster trace: %w", err)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Name == "sim" {
			d := time.Duration(ev.Dur * 1e3)
			longest = max(longest, d)
			total += d
		}
	}
	return longest, total, nil
}
