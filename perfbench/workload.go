package main

import (
	"fmt"
	"math/rand"
	"slices"
)

// The pools every workload draws from. The reference file covers each
// (circuit, seed) pair in them, in optimized mode, plus every circuit
// in schematic mode.
var (
	// smallCircuits are the four circuits the suite and serve workloads
	// lay out; a layout of any of them takes a fraction of a second.
	smallCircuits = []string{"csamp", "ota5t", "strongarm", "telescopic"}
	// smallSeeds bounds their placement seeds to 1..smallSeeds.
	smallSeeds = int64(32)
	// knownFailing are the pool pairs whose layout fails every time, in
	// post-layout eval. The timed loops never draw them, so no timed op
	// fails and two runs' failure counts cannot drift apart with their
	// op counts; each run lays them out once after timing and requires
	// the recorded error (checkKnownFailing).
	knownFailing = []pair{{"strongarm", 18}, {"strongarm", 31}}
	// rovcoSeeds bounds the RO-VCO placement seeds to 1..rovcoSeeds.
	rovcoSeeds = int64(8)
)

// rovcoStages is the paper's RO-VCO size, the primopt run default.
const rovcoStages = 8

// warmPerCircuit is how many seeds per small circuit a suite_warm run
// replays; set-up fills the disk tier with exactly these pairs. Layouts
// of some seeds replay up to a quarter slower than others, so a larger
// working set keeps one run's mix close to the pool's.
const warmPerCircuit = 4

// pair is one layout input: a circuit and its placement seed.
type pair struct {
	Circuit string
	Seed    int64
}

func (p pair) String() string { return fmt.Sprintf("%s/%d", p.Circuit, p.Seed) }

// request is one serve_mix request: a pair, whether the request asks
// for the DRC/LVS report, and whether it repeats a recent request.
type request struct {
	pair
	Verify bool
	Repeat bool
}

// poolSeeds holds, per small circuit, the placement seeds the timed
// loops draw: 1..smallSeeds less the known failing ones.
var poolSeeds = func() map[string][]int64 {
	m := map[string][]int64{}
	for _, c := range smallCircuits {
		for s := int64(1); s <= smallSeeds; s++ {
			if !slices.Contains(knownFailing, pair{c, s}) {
				m[c] = append(m[c], s)
			}
		}
	}
	return m
}()

// rovcoOps is the rovco_cold op sequence: a seeded permutation of the
// RO-VCO seed pool, repeated n times over.
func rovcoOps(seed int64, n int) []pair {
	r := rand.New(rand.NewSource(seed))
	var ops []pair
	for len(ops) < n {
		for _, i := range r.Perm(int(rovcoSeeds)) {
			ops = append(ops, pair{"rovco", int64(i) + 1})
		}
	}
	return ops[:n]
}

// suiteOps is the suite_cold op sequence: rounds of the four small
// circuits, each round in seeded order with seeded placement seeds,
// so every prefix of whole rounds holds each circuit equally often.
func suiteOps(seed int64, n int) []pair {
	r := rand.New(rand.NewSource(seed))
	var ops []pair
	for len(ops) < n {
		for _, i := range r.Perm(len(smallCircuits)) {
			seeds := poolSeeds[smallCircuits[i]]
			ops = append(ops, pair{smallCircuits[i], seeds[r.Intn(len(seeds))]})
		}
	}
	return ops[:n]
}

// warmPairs is the suite_warm working set: warmPerCircuit distinct
// seeds per small circuit, in seeded order. The timed loop cycles
// through it.
func warmPairs(seed int64) []pair {
	r := rand.New(rand.NewSource(seed))
	var ps []pair
	for _, c := range smallCircuits {
		seeds := poolSeeds[c]
		for _, i := range r.Perm(len(seeds))[:warmPerCircuit] {
			ps = append(ps, pair{c, seeds[i]})
		}
	}
	r.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	return ps
}

// Shares of the serve_mix request stream. They are chosen, not
// measured: the repository holds no request log of a sizing loop or a
// corpus generator to take them from. Repeats on a quarter of requests
// load coalescing and the shared memory tier without making the
// workload a cache benchmark; fresh verify requests on a fifth put
// DRC/LVS in the totals without dominating them; a window of twice the
// client count mixes coalesced repeats with memory hits.
const (
	repeatShare = 0.25 // repeat one of the last repeatWindow requests
	verifyShare = 0.20 // a fresh request that asks for DRC/LVS
	// repeatWindow is how far back a repeat reaches in the global
	// stream. With two clients taking alternate requests, the newest
	// one is usually still running on the other client (coalesced),
	// older ones have finished (memory hit).
	repeatWindow = 4
)

// serveStream is the serve_mix request stream. Client c of k takes
// requests c, c+k, c+2k, ..., so each client's inputs depend only on
// the seed, never on timing.
func serveStream(seed int64, n int) []request {
	r := rand.New(rand.NewSource(seed))
	reqs := make([]request, 0, n)
	for len(reqs) < n {
		u := r.Float64()
		c := smallCircuits[r.Intn(len(smallCircuits))]
		switch {
		case u < repeatShare && len(reqs) > 0:
			back := 1 + r.Intn(min(repeatWindow, len(reqs)))
			q := reqs[len(reqs)-back]
			q.Repeat = true
			reqs = append(reqs, q)
		default:
			seeds := poolSeeds[c]
			q := request{pair: pair{c, seeds[r.Intn(len(seeds))]}}
			q.Verify = u < repeatShare+verifyShare
			reqs = append(reqs, q)
		}
	}
	return reqs
}
