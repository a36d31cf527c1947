package main

import (
	"math"
	"reflect"
	"slices"
	"testing"
)

func TestOpSequencesArePureFunctionsOfTheSeed(t *testing.T) {
	gens := map[string]func(seed int64) any{
		"rovco_cold": func(s int64) any { return rovcoOps(s, 64) },
		"suite_cold": func(s int64) any { return suiteOps(s, 64) },
		"suite_warm": func(s int64) any { return warmPairs(s) },
		"serve_mix":  func(s int64) any { return serveStream(s, 64) },
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: seed 7 gave two different op sequences", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op sequence", name)
		}
	}
}

func TestOpSequencesStayInThePools(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for _, p := range rovcoOps(seed, 20) {
			if p.Circuit != "rovco" || p.Seed < 1 || p.Seed > rovcoSeeds {
				t.Fatalf("rovco op %v outside the pool", p)
			}
		}
		var ps []pair
		ps = append(ps, suiteOps(seed, 64)...)
		ps = append(ps, warmPairs(seed)...)
		for _, q := range serveStream(seed, 64) {
			ps = append(ps, q.pair)
		}
		for _, p := range ps {
			if p.Seed < 1 || p.Seed > smallSeeds || !slices.Contains(smallCircuits, p.Circuit) {
				t.Fatalf("op %v outside the small-circuit pool", p)
			}
			if slices.Contains(knownFailing, p) {
				t.Fatalf("op %v is a known failing pair", p)
			}
		}
	}
}

func TestRovcoOpsCycleThePool(t *testing.T) {
	seen := map[int64]bool{}
	for _, p := range rovcoOps(3, int(rovcoSeeds)) {
		seen[p.Seed] = true
	}
	if len(seen) != int(rovcoSeeds) {
		t.Fatalf("first %d ops cover %d seeds, want all of them", rovcoSeeds, len(seen))
	}
}

func TestSuiteRoundsAreBalanced(t *testing.T) {
	ops := suiteOps(5, 4*len(smallCircuits))
	for r := 0; r < 4; r++ {
		round := map[string]bool{}
		for _, p := range ops[r*len(smallCircuits) : (r+1)*len(smallCircuits)] {
			round[p.Circuit] = true
		}
		if len(round) != len(smallCircuits) {
			t.Fatalf("round %d holds %d distinct circuits, want %d", r, len(round), len(smallCircuits))
		}
	}
}

func TestWarmPairsAreDistinctAndStratified(t *testing.T) {
	ps := warmPairs(11)
	if len(ps) != warmPerCircuit*len(smallCircuits) {
		t.Fatalf("%d warm pairs, want %d", len(ps), warmPerCircuit*len(smallCircuits))
	}
	per := map[string]int{}
	seen := map[pair]bool{}
	for _, p := range ps {
		if seen[p] {
			t.Fatalf("pair %v drawn twice", p)
		}
		seen[p] = true
		per[p.Circuit]++
	}
	for _, c := range smallCircuits {
		if per[c] != warmPerCircuit {
			t.Fatalf("%s has %d warm pairs, want %d", c, per[c], warmPerCircuit)
		}
	}
}

func TestServeStreamShares(t *testing.T) {
	const n = 20000
	reqs := serveStream(1, n)
	var rep, ver int
	for i, q := range reqs {
		if q.Repeat {
			rep++
			found := false
			for back := 1; back <= repeatWindow && back <= i; back++ {
				if reqs[i-back].pair == q.pair && reqs[i-back].Verify == q.Verify {
					found = true
				}
			}
			if !found {
				t.Fatalf("request %d repeats nothing in the last %d", i, repeatWindow)
			}
		} else if q.Verify {
			ver++
		}
	}
	if got := float64(rep) / n; math.Abs(got-repeatShare) > 0.02 {
		t.Errorf("repeat share %.3f, want about %.2f", got, repeatShare)
	}
	if got := float64(ver) / n; math.Abs(got-verifyShare) > 0.02 {
		t.Errorf("fresh verify share %.3f, want about %.2f", got, verifyShare)
	}
}
