// Command perfbench is primopt's end-to-end benchmark. It drives the
// program's public packages in process — flow.RunContext for the CLI
// workloads, serve.New behind a loopback listener for the daemon — and
// checks every op's output against a recorded reference.
//
// Run it through perfbench/run.sh, which builds it first, from the
// repository root:
//
//	bash perfbench/run.sh --workload suite_cold --seed 3 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of one run; with
// --trace 1 it lays out one op at a time, alternating untraced and
// traced ops under a CPU profile, prints the per-layer metrics, and
// writes the whole trace as JSONL under .bench_build/.
// The last line of standard output is one JSON object; the lines
// before it are a human-readable report. See NOTES.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"
)

// entry is when perfbench started, the origin of the first set-up's time.
var entry = time.Now()

// workload is one named traffic shape over the program.
type workload struct {
	name string
	// setUp performs one complete set-up for the given workload seed
	// and returns the fixture the timed loop drives.
	setUp func(ctx context.Context, seed int64, ref reference, parts *setupParts) (fixture, error)
	// small is whether the workload draws from the small-circuit pool,
	// whose known failing pairs each run checks after timing.
	small bool
}

// fixture is a set-up workload, ready to run ops.
type fixture interface {
	// clients is the number of closed-loop clients of the timed run.
	clients() int
	// op runs op number i of the workload's input sequence. traced
	// asks a daemon request to return its own trace; the CLI ops are
	// traced through the process-wide sink instead.
	op(ctx context.Context, i int, traced bool) opResult
	close() error
}

// handRun is the workload perfbench runs but BENCHMARK.json does not
// declare. An RO-VCO layout takes 6-9 s, so a run holds 3-4 of them, and
// on a shared 2-vCPU host their per-run times moved by a third from
// minute to minute. Run it by hand in parent/change pairs.
const handRun = "rovco_cold"

var workloads = []workload{
	{"rovco_cold", setUpRovcoCold, false},
	{"suite_cold", setUpSuiteCold, true},
	{"suite_warm", setUpSuiteWarm, true},
	{"serve_mix", setUpServeMix, true},
}

func main() {
	name := flag.String("workload", "", "workload: rovco_cold, suite_cold, suite_warm, serve_mix")
	seed := flag.Int64("seed", 1, "workload seed; inputs are a pure function of it")
	seconds := flag.Int("seconds", 30, "length of the timed run in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced, profiled run")
	record := flag.String("record", "", "record the reference outputs of every input to this file and exit")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *record != "" {
		if err := recordReference(ctx, *record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload rovco_cold|suite_cold|suite_warm|serve_mix, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	out, err := runWorkload(ctx, *w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out.print(os.Stdout)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the verdict on one run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	report []string // human-readable lines printed before the JSON
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// print writes the report lines, then the result as the last line.
func (r *result) print(f *os.File) {
	for _, l := range r.report {
		fmt.Fprintln(f, l)
	}
	for _, k := range sortedKeys(r.Metrics) {
		fmt.Fprintf(f, "  %-24s %14.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Fprintln(f, string(b))
}

// Set-up repetitions: at least setupMinReps, and more until
// setupMinTime has passed. setup_s is their median, so one set-up that
// lands in a slow stretch of a shared host cannot set the figure; the
// first repetition, timed from process start, is reported beside it as
// setup.first_s.
const (
	setupMinReps = 3
	setupMinTime = 2 * time.Second
)

// setupParts times the phases of each set-up repetition.
type setupParts struct {
	build, reference, warm, ready []time.Duration
}

// setUp runs the workload's set-up several times, keeping the last
// fixture. The first repetition is timed from process start.
func setUp(ctx context.Context, w workload, seed int64, ref reference) (fixture, []time.Duration, *setupParts, error) {
	parts := &setupParts{}
	var reps []time.Duration
	var spent time.Duration
	t0 := entry
	for {
		sp := startSpan("bench.setup")
		fx, err := w.setUp(ctx, seed, ref, parts)
		sp.End()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		d := time.Since(t0)
		reps = append(reps, d)
		spent += d
		if len(reps) >= setupMinReps && spent >= setupMinTime {
			return fx, reps, parts, nil
		}
		if err := fx.close(); err != nil {
			return nil, nil, nil, fmt.Errorf("%s set-up: close: %w", w.name, err)
		}
		t0 = time.Now()
	}
}

// opResult is the outcome of one op.
type opResult struct {
	latency time.Duration
	failed  bool  // flow error, non-200 response, wrong output or dirty verify
	wrong   error // the output differs from the reference
	shed    bool  // the daemon refused the request (429)

	// Daemon requests only.
	served bool
	wait   time.Duration // client latency minus the daemon's own runtime
	verify bool
	repeat bool
	// stages and counters come back in a traced request's body.
	stages   map[string]time.Duration
	counters map[string]int64
	traced   bool
}

// phase is one timed loop: its ops and the process counters around it.
type phase struct {
	ops    []opResult
	u0, u1 usage
}

func (ph *phase) failed() int {
	n := 0
	for _, o := range ph.ops {
		if o.failed {
			n++
		}
	}
	return n
}

// latencies returns the wall times of the successful ops, optionally
// only those with the given traced flag.
func (ph *phase) latencies(filter func(opResult) bool) []float64 {
	var xs []float64
	for _, o := range ph.ops {
		if !o.failed && (filter == nil || filter(o)) {
			xs = append(xs, o.latency.Seconds())
		}
	}
	return xs
}

// runClosedLoop runs the fixture's clients, each sending its next op
// only when the previous one returned, until d has passed. Client c of
// k takes ops c, c+k, c+2k, ...
func runClosedLoop(ctx context.Context, fx fixture, d time.Duration) *phase {
	k := fx.clients()
	per := make([][]opResult, k)
	ph := &phase{u0: readUsage()}
	until := ph.u0.wall.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < k; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; time.Now().Before(until) && ctx.Err() == nil; i += k {
				per[c] = append(per[c], fx.op(ctx, i, false))
			}
		}(c)
	}
	wg.Wait()
	ph.u1 = readUsage()
	for _, ops := range per {
		ph.ops = append(ph.ops, ops...)
	}
	return ph
}

// runWorkload sets the workload up, runs it, and checks every output.
func runWorkload(ctx context.Context, w workload, seed int64, d time.Duration, traced bool) (*result, error) {
	var tr *traceRun
	if traced {
		tr = newTraceRun()
	}
	ref, err := parseReference(referenceJSON)
	if err != nil {
		return nil, err
	}
	fx, reps, parts, err := setUp(ctx, w, seed, ref)
	if err != nil {
		return nil, err
	}
	var ph *phase
	if traced {
		ph, err = tr.run(ctx, fx, d)
	} else {
		ph = runClosedLoop(ctx, fx, d)
	}
	if cerr := fx.close(); err == nil && cerr != nil {
		err = fmt.Errorf("close: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	res := &result{Correct: true, Attempted: len(ph.ops), Failed: ph.failed(), Metrics: map[string]metric{}}
	for _, o := range ph.ops {
		if o.wrong != nil {
			res.Correct = false
			res.report = append(res.report, "WRONG OUTPUT: "+o.wrong.Error())
		}
	}
	if res.Attempted == 0 || len(ph.latencies(nil)) == 0 {
		return nil, fmt.Errorf("%s: no op completed successfully in %s", w.name, d)
	}
	res.report = append(res.report, fmt.Sprintf("perfbench %s seed %d: %d ops, %d failed (failed_frac %.4g), %d set-ups (first %.4g s, median %.4g s), timed %.2f s",
		w.name, seed, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted), len(reps), reps[0].Seconds(), medianDur(reps), ph.u1.wall.Sub(ph.u0.wall).Seconds()))
	if w.name == "serve_mix" {
		res.report = append(res.report, serveShares(ph))
	}
	if traced {
		if err := tr.report(res, ph, reps, parts, fmt.Sprintf("%s/trace-%s-%d.jsonl", scratchRoot, w.name, seed)); err != nil {
			return nil, err
		}
	} else {
		endToEnd(res, ph, reps)
	}
	if w.small {
		// After every metric is taken, so it is in none of them.
		line, wrong, err := checkKnownFailing(ctx, ref)
		if err != nil {
			return nil, err
		}
		res.report = append(res.report, line)
		if wrong != nil {
			res.Correct = false
			res.report = append(res.report, "WRONG OUTPUT: "+wrong.Error())
		}
	}
	return res, nil
}

// endToEnd fills the end-to-end metrics of an untraced run.
func endToEnd(res *result, ph *phase, reps []time.Duration) {
	lat := ph.latencies(nil)
	wall := ph.u1.wall.Sub(ph.u0.wall).Seconds()
	n := float64(len(ph.ops))
	res.set("layout_p50_s", median(lat), "s")
	res.set("layouts_per_s", float64(len(lat))/wall, "1/s")
	res.set("cpu_s_per_layout", (ph.u1.cpu-ph.u0.cpu).Seconds()/n, "s")
	res.set("alloc_mb_per_layout", float64(ph.u1.allocs-ph.u0.allocs)/1e6/n, "MB")
	res.set("peak_rss_mb", peakRSSMB(), "MB")
	res.set("setup_s", medianDur(reps), "s")
	res.report = append(res.report, fmt.Sprintf("  %-24s %14.6g s (%d successful ops; failed_frac %d/%d)",
		"layout_p90_s", percentile(lat, 0.9), len(lat), ph.failed(), len(ph.ops)))
}

// serveShares reports the measured make-up of a serve_mix request
// stream: repeats of a recent request, fresh requests, and the share of
// all requests that asked for the DRC/LVS report.
func serveShares(ph *phase) string {
	var rep, ver, shed int
	var waits []float64
	for _, o := range ph.ops {
		if o.repeat {
			rep++
		}
		if o.verify {
			ver++
		}
		if o.shed {
			shed++
		}
		if !o.failed {
			waits = append(waits, o.wait.Seconds())
		}
	}
	n := float64(len(ph.ops))
	return fmt.Sprintf("  serve_mix shares: repeat %.3f, fresh %.3f, verify %.3f of all; %d shed; median serve wait %.4g s",
		float64(rep)/n, 1-float64(rep)/n, float64(ver)/n, shed, median(waits))
}
