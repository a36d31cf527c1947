package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"primopt/internal/circuits"
	"primopt/internal/evcache"
	"primopt/internal/flow"
	"primopt/internal/obs"
	"primopt/internal/pdk"
)

// opsPerRun bounds the generated op sequences; a timed loop wraps
// around once it has used them all.
const opsPerRun = 4096

// scratchRoot holds the disk tiers suite_warm fills, inside the
// directory the benchmark is run from.
const scratchRoot = ".bench_build"

// cliFixture lays circuits out the way primopt run does: one
// flow.RunContext per op in optimized mode, each with a fresh
// in-memory cache, optionally backed by a disk tier.
type cliFixture struct {
	tech     *pdk.Tech
	bms      map[string]*circuits.Benchmark
	ops      []pair
	ref      reference
	cacheDir string // suite_warm: the filled disk tier
}

func (f *cliFixture) clients() int { return 1 }

func (f *cliFixture) op(ctx context.Context, i int, _ bool) opResult {
	p := f.ops[i%len(f.ops)]
	decks := obs.Default().Counter("spice.decks")
	d0 := decks.Value()
	sp := startSpan("bench.flow_run")
	t0 := time.Now()
	res, cache, err := f.run(ctx, p)
	o := opResult{latency: time.Since(t0), failed: err != nil}
	sp.End()
	o.wrong = f.check(p, res, err)
	if o.wrong == nil && f.cacheDir != "" {
		o.wrong = checkWarm(p, cache.Stats(), decks.Value()-d0)
	}
	if o.wrong != nil {
		o.failed = true
	}
	return o
}

// checkWarm enforces the warm-replay invariant on one suite_warm
// layout: every evaluation its memory cache missed was served by the
// disk tier, so no evaluation was recomputed. decks is the SPICE decks
// the layout solved; the counter only moves while a trace is
// installed, so an untraced op passes 0.
func checkWarm(p pair, st evcache.Stats, decks int64) error {
	switch {
	case st.DiskMisses != 0 || st.DiskHits == 0:
		return fmt.Errorf("%s: warm layout missed the disk tier %d times (%d disk hits)", p, st.DiskMisses, st.DiskHits)
	case decks != 0:
		return fmt.Errorf("%s: warm layout solved %d SPICE decks", p, decks)
	}
	return nil
}

// check compares one layout's outcome with the reference.
func (f *cliFixture) check(p pair, res *flow.Result, err error) error {
	key := refKey(p.Circuit, flow.Optimized, p.Seed)
	if err != nil {
		return f.ref.check(key, nil, err.Error())
	}
	return f.ref.check(key, res.Metrics, "")
}

// run lays one pair out with a fresh memory cache, as primopt run does,
// and returns that cache with the result.
func (f *cliFixture) run(ctx context.Context, p pair) (*flow.Result, *evcache.Cache, error) {
	params := flow.Params{Seed: p.Seed, CacheDir: f.cacheDir}
	params.Optimize.Cache = evcache.New()
	res, err := flow.RunContext(ctx, f.tech, f.bms[p.Circuit], flow.Optimized, params)
	return res, params.Optimize.Cache, err
}

func (f *cliFixture) close() error {
	if f.cacheDir == "" {
		return nil
	}
	return os.RemoveAll(f.cacheDir)
}

// checkKnownFailing lays each known failing pair out once, untimed and
// with a fresh cache, and checks that it still fails with the recorded
// error. It returns a report line, the first outcome that differs from
// the reference, and any error that stopped the check itself.
func checkKnownFailing(ctx context.Context, ref reference) (line string, wrong, err error) {
	tech := pdk.Default()
	f := &cliFixture{tech: tech, bms: map[string]*circuits.Benchmark{}, ref: ref}
	for _, p := range knownFailing {
		if f.bms[p.Circuit] == nil {
			if f.bms[p.Circuit], err = circuits.Build(tech, p.Circuit, rovcoStages); err != nil {
				return "", nil, err
			}
		}
		res, _, runErr := f.run(ctx, p)
		if ctx.Err() != nil {
			return "", nil, ctx.Err()
		}
		if wrong = f.check(p, res, runErr); wrong == nil && runErr == nil {
			wrong = fmt.Errorf("%s: laid out cleanly; drop it from knownFailing", p)
		}
		if wrong != nil {
			return fmt.Sprintf("  known failing inputs (untimed): %s no longer fails as recorded", p), wrong, nil
		}
	}
	return fmt.Sprintf("  known failing inputs (untimed): %v fail as recorded", knownFailing), nil, nil
}

// buildCircuits is the common first half of every set-up: the PDK,
// the benchmarks, and each circuit's schematic-mode evaluation (the
// reference column of Tables VI/VII), checked against the reference.
func buildCircuits(ctx context.Context, names []string, ref reference, parts *setupParts) (*pdk.Tech, map[string]*circuits.Benchmark, error) {
	t0 := time.Now()
	sp := startSpan("bench.build")
	tech := pdk.Default()
	bms := map[string]*circuits.Benchmark{}
	for _, n := range names {
		bm, err := circuits.Build(tech, n, rovcoStages)
		if err != nil {
			sp.End()
			return nil, nil, err
		}
		bms[n] = bm
	}
	sp.End()
	parts.build = append(parts.build, time.Since(t0))

	t0 = time.Now()
	sp = startSpan("bench.reference")
	defer sp.End()
	for _, n := range names {
		res, err := flow.RunContext(ctx, tech, bms[n], flow.Schematic, flow.Params{})
		if err != nil {
			return nil, nil, fmt.Errorf("%s schematic eval: %w", n, err)
		}
		if err := ref.check(refKey(n, flow.Schematic, 0), res.Metrics, ""); err != nil {
			return nil, nil, fmt.Errorf("wrong schematic output: %w", err)
		}
	}
	parts.reference = append(parts.reference, time.Since(t0))
	return tech, bms, nil
}

func setUpRovcoCold(ctx context.Context, seed int64, ref reference, parts *setupParts) (fixture, error) {
	tech, bms, err := buildCircuits(ctx, []string{"rovco"}, ref, parts)
	if err != nil {
		return nil, err
	}
	return &cliFixture{tech: tech, bms: bms, ops: rovcoOps(seed, opsPerRun), ref: ref}, nil
}

func setUpSuiteCold(ctx context.Context, seed int64, ref reference, parts *setupParts) (fixture, error) {
	tech, bms, err := buildCircuits(ctx, smallCircuits, ref, parts)
	if err != nil {
		return nil, err
	}
	return &cliFixture{tech: tech, bms: bms, ops: suiteOps(seed, opsPerRun), ref: ref}, nil
}

// setUpSuiteWarm fills a fresh disk tier with every pair the timed
// loop will lay out, each checked against the reference, so each timed
// op replays its evaluations from disk.
func setUpSuiteWarm(ctx context.Context, seed int64, ref reference, parts *setupParts) (fixture, error) {
	tech, bms, err := buildCircuits(ctx, smallCircuits, ref, parts)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchRoot, "perfbench-warm-")
	if err != nil {
		return nil, err
	}
	f := &cliFixture{tech: tech, bms: bms, ops: warmPairs(seed), ref: ref, cacheDir: filepath.Clean(dir)}
	t0 := time.Now()
	sp := startSpan("bench.warm")
	defer sp.End()
	for _, p := range f.ops {
		res, _, err := f.run(ctx, p)
		if err := f.check(p, res, err); err != nil {
			// The fill already failed; removing its directory is best effort.
			_ = f.close()
			return nil, fmt.Errorf("filling the disk tier: %w", err)
		}
	}
	parts.warm = append(parts.warm, time.Since(t0))
	return f, nil
}
