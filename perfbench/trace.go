package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"primopt/internal/obs"
)

// startSpan opens a perfbench span on the process-wide trace; with
// tracing off it is the nil span, whose methods are no-ops.
func startSpan(name string) *obs.Span { return obs.Default().Start(name) }

// flowStages are the flow's stage spans whose wall time the traced run
// reports as flow.<stage>_s.
var flowStages = []string{
	"flow.schematic_op", "flow.primitives", "flow.place", "flow.route",
	"flow.portopt", "flow.assemble", "flow.eval", "flow.verify",
}

// workCounters are the obs counters the traced run reports per op.
var workCounters = []string{
	"spice.decks", "spice.duplicate_decks", "spice.op.runs", "spice.ac.runs",
	"spice.tran.runs", "spice.tran.steps", "spice.dc.newton_iters",
	"spice.tran.newton_iters", "spice.newton.bypassed", "spice.factor.reused",
	"optimize.evals", "optimize.repeat_evals", "primlib.sims", "extract.runs",
	"portopt.evals", "place.anneal.moves", "route.astar.expansions",
	"evcache.hits", "evcache.misses", "evcache.disk_hits", "evcache.disk_misses",
	// Failures and retries.
	"flow.retries", "flow.degraded", "spice.dc.nonconverged", "spice.tran.halvings",
}

// perLayerMetrics lists every metric a traced run prints, in order,
// with its unit; BENCHMARK.json's per_layer section mirrors it.
func perLayerMetrics() [][2]string {
	var ms [][2]string
	for _, s := range flowStages {
		ms = append(ms, [2]string{s + "_s", "s"})
	}
	for _, m := range append(append([]string(nil), cpuModules...), "other", "total") {
		ms = append(ms, [2]string{"cpu." + m + "_s", "s"})
	}
	for _, c := range workCounters {
		ms = append(ms, [2]string{c, "count"})
	}
	return append(ms,
		[2]string{"evcache.hit_ratio", "ratio"},
		[2]string{"spice.duplicate_ratio", "ratio"},
		[2]string{"serve.wait_s", "s"},
		[2]string{"serve.shed", "count"},
		[2]string{"serve.errors", "count"},
		[2]string{"setup.first_s", "s"},
		[2]string{"setup.build_s", "s"},
		[2]string{"setup.reference_s", "s"},
		[2]string{"setup.warm_s", "s"},
		[2]string{"setup.ready_s", "s"},
		[2]string{"trace.overhead_frac", "ratio"},
	)
}

// traceRun is a --trace 1 run: one obs trace installed as the
// process-wide sink from process start, and a CPU profile of the timed
// loop.
type traceRun struct {
	tr      *obs.Trace
	base    map[string]int64 // counter values when the timed loop began
	profile bytes.Buffer
}

func newTraceRun() *traceRun {
	t := &traceRun{tr: obs.New()}
	obs.SetDefault(t.tr)
	return t
}

func (t *traceRun) counters() map[string]int64 {
	_, metrics := t.tr.Snapshot()
	m := map[string]int64{}
	for _, r := range metrics {
		if r.Kind == "counter" {
			m[r.Name] = int64(r.Value)
		}
	}
	return m
}

// run lays ops out one at a time under a CPU profile until d has
// passed, alternating untraced (even) and traced (odd) ops: the trace
// is the process-wide sink only while a traced op runs, so the two
// halves time the same op mix with and without tracing.
func (t *traceRun) run(ctx context.Context, fx fixture, d time.Duration) (*phase, error) {
	t.base = t.counters()
	timed := t.tr.Start("bench.timed")
	if err := pprof.StartCPUProfile(&t.profile); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	ph := &phase{u0: readUsage()}
	until := ph.u0.wall.Add(d)
	for i := 0; time.Now().Before(until) && ctx.Err() == nil; i++ {
		traced := i%2 == 1
		if traced {
			obs.SetDefault(t.tr)
		} else {
			obs.SetDefault(nil)
		}
		o := fx.op(ctx, i, traced)
		o.traced = traced
		ph.ops = append(ph.ops, o)
	}
	obs.SetDefault(t.tr)
	ph.u1 = readUsage()
	pprof.StopCPUProfile()
	timed.End()
	return ph, nil
}

// stageTimes sums the flow stage spans of a span list by name.
func stageTimes(spans []obs.SpanRecord) map[string]time.Duration {
	m := map[string]time.Duration{}
	for _, s := range spans {
		for _, st := range flowStages {
			if s.Name == st {
				m[st] += time.Duration(s.DurUS) * time.Microsecond
			}
		}
	}
	return m
}

// report fills the per-layer metrics of a traced run, exactly those
// perLayerMetrics lists, and writes the trace to traceOut.
func (t *traceRun) report(res *result, ph *phase, reps []time.Duration, parts *setupParts, traceOut string) error {
	var traced []opResult
	for _, o := range ph.ops {
		if o.traced {
			traced = append(traced, o)
		}
	}
	if len(traced) == 0 {
		return fmt.Errorf("traced run: no traced op completed")
	}
	nt, na := float64(len(traced)), float64(len(ph.ops))
	vals := map[string]float64{}

	// Flow stage wall time: spans the trace recorded after the timed
	// loop began, plus the spans traced daemon requests returned.
	spans, _ := t.tr.Snapshot()
	var timedStart int64
	for _, s := range spans {
		if s.Name == "bench.timed" {
			timedStart = s.StartUS
		}
	}
	var inLoop []obs.SpanRecord
	for _, s := range spans {
		if s.StartUS >= timedStart {
			inLoop = append(inLoop, s)
		}
	}
	stages := stageTimes(inLoop)
	for _, o := range traced {
		for k, v := range o.stages {
			stages[k] += v
		}
	}
	for _, s := range flowStages {
		vals[s+"_s"] = stages[s].Seconds() / nt
	}

	// CPU busy time by module, over every op of the profiled loop.
	cpu, total, err := attributeCPU(t.profile.Bytes())
	if err != nil {
		return err
	}
	for m, ns := range cpu {
		vals["cpu."+m+"_s"] = float64(ns) / 1e9 / na
	}
	vals["cpu.total_s"] = float64(total) / 1e9 / na
	// The profile samples the process at 100 Hz; getrusage counts all
	// of its CPU time. Their ratio says how much of the CPU the parts
	// account for.
	res.report = append(res.report, fmt.Sprintf("  cpu profile total %.4g s over the loop, getrusage %.4g s (coverage %.3f)",
		float64(total)/1e9, (ph.u1.cpu-ph.u0.cpu).Seconds(), float64(total)/float64(ph.u1.cpu-ph.u0.cpu)))

	// Work counts: the trace's counter deltas plus traced requests' own.
	counts := map[string]int64{}
	for k, v := range t.counters() {
		counts[k] = v - t.base[k]
	}
	for _, o := range traced {
		for k, v := range o.counters {
			counts[k] += v
		}
	}
	for _, c := range workCounters {
		vals[c] = float64(counts[c]) / nt
	}
	lookups := counts["evcache.hits"] + counts["evcache.misses"]
	vals["evcache.hit_ratio"] = ratio(counts["evcache.hits"], lookups)
	vals["spice.duplicate_ratio"] = ratio(counts["spice.duplicate_decks"], counts["spice.decks"])
	res.report = append(res.report, fmt.Sprintf("  ratio bases over %d traced ops: evcache %d hits / %d lookups, spice %d duplicate / %d decks",
		len(traced), counts["evcache.hits"], lookups, counts["spice.duplicate_decks"], counts["spice.decks"]))

	var wait time.Duration
	var shed, errs int
	for _, o := range ph.ops {
		switch {
		case !o.served:
		case o.shed:
			shed++
		case o.failed:
			errs++
		default:
			wait += o.wait
		}
	}
	vals["serve.wait_s"] = wait.Seconds() / na
	vals["serve.shed"] = float64(shed) / na
	vals["serve.errors"] = float64(errs) / na

	vals["setup.first_s"] = reps[0].Seconds()
	vals["setup.build_s"] = medianDur(parts.build)
	vals["setup.reference_s"] = medianDur(parts.reference)
	vals["setup.warm_s"] = medianDur(parts.warm)
	vals["setup.ready_s"] = medianDur(parts.ready)

	un := ph.latencies(func(o opResult) bool { return !o.traced })
	tl := ph.latencies(func(o opResult) bool { return o.traced })
	if len(un) == 0 || len(tl) == 0 {
		return fmt.Errorf("traced run: need successful untraced and traced ops for the overhead")
	}
	vals["trace.overhead_frac"] = median(tl)/median(un) - 1

	for _, m := range perLayerMetrics() {
		v, ok := vals[m[0]]
		if !ok {
			return fmt.Errorf("traced run: metric %s not computed", m[0])
		}
		res.set(m[0], v, m[1])
	}
	if len(res.Metrics) != len(vals) {
		return fmt.Errorf("traced run: computed %d metrics, %d declared", len(vals), len(res.Metrics))
	}
	res.report = append(res.report, "  trace written to "+traceOut)
	if err := os.MkdirAll(filepath.Dir(traceOut), 0o755); err != nil {
		return err
	}
	f, err := os.Create(traceOut)
	if err != nil {
		return err
	}
	if err := t.tr.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
