// Command perfbench is boomsim's end-to-end benchmark. It runs one named
// workload, checks every output, and prints one JSON line with the
// end-to-end metrics (or, with -trace 1, the per-layer metrics of a traced
// run). Every timed phase runs in a fresh child process, as a user's
// command would. See NOTES.md for the workloads and metrics.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload matrix-full --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// endToEnd lists the metrics an untraced run prints, with their units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"minstr_per_s", "Minstr/s"},
	{"peak_rss_mb", "MB"},
	{"call_p50_ms", "ms"},
	{"call_p99_ms", "ms"},
	{"cells_per_s", "1/s"},
}

var workloads = []string{"paper-claims", "matrix-full", "service-mix"}

// secondsPerRep is how much of --seconds one fresh-process repetition
// stands for. A repetition takes about 4 s (paper-claims) and 18 s
// (matrix-full) on the 2-vCPU reference host; the shares leave room for a
// run's set-up processes and for slower phases of a shared host.
// service-mix makes one repetition whose length --seconds sets directly.
var secondsPerRep = map[string]float64{"paper-claims": 5, "matrix-full": 15}

// setupSamples is how many set-up-only children a run starts, on top of
// the set-up every repetition reports.
const setupSamples = 15

// runDeadline keeps a run inside the 180 s a benchmark run may take.
const runDeadline = 170 * time.Second

//go:embed digests.json
var digestsJSON []byte

// book holds the output digests recorded at the commit that added the
// benchmark.
type book struct {
	// Matrix is matrix-full's 126 cell digests, in grid order.
	Matrix []string `json:"matrix-full"`
	// Claims maps each paper-claims spec to its report digest.
	Claims map[string]string `json:"paper-claims"`
	// Service maps a pool configuration's fingerprint prefix to its
	// result digest.
	Service map[string]string `json:"service-mix"`
}

func loadBook() (book, error) {
	var b book
	if err := json.Unmarshal(digestsJSON, &b); err != nil {
		return b, fmt.Errorf("digests.json: %w", err)
	}
	return b, nil
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := flag.Uint64("seed", 0, "workload seed")
	seconds := flag.Int("seconds", 30, "measurement length in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead")
	child := flag.String("child", "", "internal: run as a child process (setup, plain, traced)")
	traceOut := flag.String("trace-out", "", "Chrome trace file of a traced run (default .bench_build/traces/<workload>-<seed>.json)")
	record := flag.Bool("record", false, "record reference digests into perfbench/digests.json and exit")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	if *traceOut == "" {
		*traceOut = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-%d.json", *workload, *seed))
	}
	var err error
	switch {
	case *child != "":
		err = runChild(ctx, *workload, *seed, *seconds, *child, *traceOut)
	case *record:
		err = recordDigests()
	default:
		var res result
		res, err = parent(ctx, *workload, *seed, *seconds, *trace == 1, *traceOut)
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// spawn runs one child process and returns its set-up time (start to
// readyLine) and, for a timed child, its report.
func spawn(ctx context.Context, mode, workload string, seed uint64, seconds int, traceOut string) (time.Duration, childOut, error) {
	var out childOut
	self, err := os.Executable()
	if err != nil {
		return 0, out, err
	}
	cmd := exec.CommandContext(ctx, self, "-child", mode, "-workload", workload,
		"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace-out", traceOut)
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	// A child must not outlive the run, even if the run itself is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, out, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, out, err
	}
	var setup time.Duration
	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		if sc.Text() == readyLine && setup == 0 {
			setup = time.Since(start)
			continue
		}
		last = sc.Text()
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return 0, out, fmt.Errorf("%s child: %w", mode, err)
	}
	if scanErr != nil {
		return 0, out, scanErr
	}
	if setup == 0 {
		return 0, out, fmt.Errorf("%s child never reported set-up", mode)
	}
	if mode != "setup" {
		if err := json.Unmarshal([]byte(last), &out); err != nil {
			return 0, out, fmt.Errorf("%s child report: %w", mode, err)
		}
	}
	return setup, out, nil
}

// reps is how many timed repetitions a run of the given length makes.
func reps(workload string, seconds int) int {
	n, ok := secondsPerRep[workload]
	if !ok {
		return 1
	}
	return max(1, int(math.Round(float64(seconds)/n)))
}

func parent(ctx context.Context, workload string, seed uint64, seconds int, trace bool, traceOut string) (result, error) {
	res := result{Metrics: map[string]metric{}}
	known := false
	for _, w := range workloads {
		known = known || w == workload
	}
	if !known {
		return res, fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloads, ", "))
	}
	if seconds < 1 {
		return res, errors.New("seconds must be positive")
	}
	if trace {
		return tracedRun(ctx, workload, seed, seconds, traceOut)
	}
	var setups, walls, minstr, rss, calls, cellRate []float64
	for i := 0; i < setupSamples; i++ {
		d, _, err := spawn(ctx, "setup", workload, seed, seconds, traceOut)
		if err != nil {
			return res, err
		}
		setups = append(setups, d.Seconds())
	}
	var problems []string
	for i := 0; i < reps(workload, seconds); i++ {
		d, out, err := spawn(ctx, "plain", workload, seed, seconds, traceOut)
		if err != nil {
			return res, err
		}
		setups = append(setups, d.Seconds())
		walls = append(walls, out.WallS)
		minstr = append(minstr, float64(out.Instrs)/1e6/out.WallS)
		cellRate = append(cellRate, float64(out.Cells)/out.WallS)
		rss = append(rss, out.RSSMB)
		calls = append(calls, out.CallsMS...)
		res.Attempted += out.Attempted
		res.Failed += out.Failed
		problems = append(problems, out.Problems...)
	}
	values := map[string]float64{
		"setup_s":      median(setups),
		"wall_s":       median(walls),
		"minstr_per_s": median(minstr),
		"peak_rss_mb":  median(rss),
		"call_p50_ms":  quantile(calls, 0.50),
		"call_p99_ms":  quantile(calls, 0.99),
		"cells_per_s":  median(cellRate),
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d repetitions, %d calls (p99 has %d beyond it), %d set-ups\n",
		workload, seed, len(walls), len(calls), len(calls)/100, len(setups))
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	return finish(res, problems), nil
}

// tracedRun makes one untraced and one traced repetition and reports the
// traced one's per-layer metrics. The two must agree on every output.
func tracedRun(ctx context.Context, workload string, seed uint64, seconds int, traceOut string) (result, error) {
	res := result{Metrics: map[string]metric{}}
	_, plain, err := spawn(ctx, "plain", workload, seed, seconds, traceOut)
	if err != nil {
		return res, err
	}
	_, traced, err := spawn(ctx, "traced", workload, seed, seconds, traceOut)
	if err != nil {
		return res, err
	}
	res.Attempted = plain.Attempted + traced.Attempted
	res.Failed = plain.Failed + traced.Failed
	problems := append(plain.Problems, traced.Problems...)
	if workload != "service-mix" && strings.Join(plain.Digests, ",") != strings.Join(traced.Digests, ",") {
		res.Failed += traced.Attempted
		problems = append(problems, "traced outputs differ from untraced outputs")
	}
	traced.Layers["trace.overhead_frac"] = traced.WallS/plain.WallS - 1
	if workload != "service-mix" {
		traced.Layers["sweep.calls"] = float64(len(traced.CallsMS))
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: traced.Layers[m.name], Unit: m.unit}
	}
	return finish(res, problems), nil
}

func finish(res result, problems []string) result {
	res.Failed = min(res.Failed, res.Attempted)
	res.Correct = res.Failed == 0 && len(problems) == 0 && res.Attempted > 0
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	return res
}

// recordDigests runs matrix-full and paper-claims once each in a fresh
// child and every service-mix pool configuration locally, and writes their
// digests to perfbench/digests.json. Run it at the commit whose outputs
// are the reference.
func recordDigests() error {
	var b book
	ctx := context.Background()
	for _, w := range []string{"matrix-full", "paper-claims"} {
		// Seed 0 submits in an order that is not grid order; the child
		// reports digests in submission order.
		_, out, err := spawn(ctx, "plain", w, 0, 1, "")
		if err != nil {
			return err
		}
		if out.Failed > 0 {
			return fmt.Errorf("%s fails its checks: %v", w, out.Problems)
		}
		perm := order(0, len(out.Digests))
		if w == "matrix-full" {
			b.Matrix = make([]string, len(out.Digests))
			for i, j := range perm {
				b.Matrix[j] = out.Digests[i]
			}
			continue
		}
		b.Claims = map[string]string{}
		for i, j := range perm {
			b.Claims[claimSpecs[j]] = out.Digests[i]
		}
	}
	b.Service = map[string]string{}
	for _, c := range servicePool() {
		sim, err := c.simulation()
		if err != nil {
			return err
		}
		r, err := sim.Run(ctx)
		if err != nil {
			return err
		}
		b.Service[fingerprint16(sim)] = digest(r)
	}
	raw, err := json.MarshalIndent(b, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("perfbench", "digests.json"), append(raw, '\n'), 0o644)
}
