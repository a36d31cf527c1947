package main

import (
	"math"
	"strings"
	"testing"

	"primopt/internal/evcache"
	"primopt/internal/flow"
)

func testReference() reference {
	return reference{
		"csamp/optimized/1":     {Metrics: map[string]string{"gain_db": formatExact(30.447925846302645), "power": formatExact(6.07e-4)}},
		"strongarm/optimized/1": {Error: "flow: eval: no clean decision"},
		"csamp/schematic/0":     {Metrics: map[string]string{"nan": "NaN"}},
	}
}

func TestReferenceCheckIsBitForBit(t *testing.T) {
	ref := testReference()
	key := refKey("csamp", flow.Optimized, 1)
	good := map[string]float64{"gain_db": 30.447925846302645, "power": 6.07e-4}
	if err := ref.check(key, good, ""); err != nil {
		t.Fatalf("identical output flagged: %v", err)
	}
	for _, name := range []string{"gain_db", "power"} {
		for _, dir := range []float64{math.Inf(1), math.Inf(-1)} {
			bad := map[string]float64{"gain_db": good["gain_db"], "power": good["power"]}
			bad[name] = math.Nextafter(bad[name], dir)
			if err := ref.check(key, bad, ""); err == nil {
				t.Errorf("a 1-ulp change of %s passed the check", name)
			}
		}
	}
	if err := ref.check(key, map[string]float64{"gain_db": good["gain_db"]}, ""); err == nil {
		t.Error("a missing metric passed the check")
	}
	if err := ref.check(key, map[string]float64{"gain_db": good["gain_db"], "pwr": good["power"]}, ""); err == nil {
		t.Error("a renamed metric passed the check")
	}
	if err := ref.check(key, nil, "flow: something broke"); err == nil {
		t.Error("a failure where the reference has metrics passed the check")
	}
	if err := ref.check(refKey("csamp", flow.Optimized, 2), good, ""); err == nil {
		t.Error("an input without a reference entry passed the check")
	}
	if err := ref.check(refKey("csamp", flow.Schematic, 9), map[string]float64{"nan": math.NaN()}, ""); err != nil {
		t.Errorf("NaN against a recorded NaN flagged: %v", err)
	}
}

func TestReferenceCheckKnownFailures(t *testing.T) {
	ref := testReference()
	key := refKey("strongarm", flow.Optimized, 1)
	if err := ref.check(key, nil, "flow: eval: no clean decision"); err != nil {
		t.Errorf("the recorded failure flagged: %v", err)
	}
	if err := ref.check(key, nil, "flow: eval: something else"); err == nil {
		t.Error("another error passed the check")
	}
	if err := ref.check(key, map[string]float64{"x": 1}, ""); err == nil {
		t.Error("success where failure was recorded passed the check")
	}
}

// TestEmbeddedReferenceCoversThePools checks that every input a
// workload can draw has a recorded outcome, and that the recorded
// failures are exactly the knownFailing pairs.
func TestEmbeddedReferenceCoversThePools(t *testing.T) {
	ref, err := parseReference(referenceJSON)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, c := range append([]string{"rovco"}, smallCircuits...) {
		want[refKey(c, flow.Schematic, 0)] = true
	}
	for s := int64(1); s <= rovcoSeeds; s++ {
		want[refKey("rovco", flow.Optimized, s)] = true
	}
	for _, c := range smallCircuits {
		for s := int64(1); s <= smallSeeds; s++ {
			want[refKey(c, flow.Optimized, s)] = true
		}
	}
	failing := map[string]bool{}
	for _, p := range knownFailing {
		failing[refKey(p.Circuit, flow.Optimized, p.Seed)] = true
	}
	for k := range want {
		if _, ok := ref[k]; !ok {
			t.Errorf("no reference entry for %s", k)
		}
	}
	for k, e := range ref {
		if !want[k] {
			t.Errorf("reference entry %s is outside every pool", k)
		}
		if e.Error != "" && !failing[k] {
			t.Errorf("%s recorded a failure not in knownFailing: %s", k, e.Error)
		}
		if e.Error == "" && failing[k] {
			t.Errorf("%s is in knownFailing but recorded no failure", k)
		}
		if e.Error != "" && !strings.Contains(e.Error, "no clean decision") {
			t.Errorf("%s recorded failure %q", k, e.Error)
		}
	}
}

func TestCheckWarmFlagsAnyRecomputation(t *testing.T) {
	p := pair{"csamp", 1}
	for _, tc := range []struct {
		name  string
		st    evcache.Stats
		decks int64
		ok    bool
	}{
		{"replayed", evcache.Stats{DiskTier: true, DiskHits: 40}, 0, true},
		{"disk miss", evcache.Stats{DiskTier: true, DiskHits: 39, DiskMisses: 1}, 0, false},
		{"no disk hit", evcache.Stats{DiskTier: true}, 0, false},
		{"solved a deck", evcache.Stats{DiskTier: true, DiskHits: 40}, 1, false},
	} {
		if err := checkWarm(p, tc.st, tc.decks); (err == nil) != tc.ok {
			t.Errorf("%s: checkWarm = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
