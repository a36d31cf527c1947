package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json perfbench must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesPerfbench checks that perfbench prints
// exactly the metrics BENCHMARK.json declares, with the same units,
// and that the declared workloads are perfbench's own less the
// hand-run ones.
func TestBenchmarkJSONMatchesPerfbench(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}

	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var known []string
	for _, w := range workloads {
		if w.name != handRun {
			known = append(known, w.name)
		}
	}
	if !reflect.DeepEqual(names, known) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench %v", names, known)
	}

	// End to end: what endToEnd fills for a small synthetic run.
	t0 := time.Unix(0, 0)
	ph := &phase{
		ops: []opResult{{latency: time.Second}, {latency: 2 * time.Second}},
		u0:  usage{wall: t0},
		u1:  usage{wall: t0.Add(3 * time.Second), cpu: time.Second, allocs: 1e6},
	}
	res := &result{Metrics: map[string]metric{}}
	endToEnd(res, ph, []time.Duration{time.Second})
	got := map[string]string{}
	for k, m := range res.Metrics {
		got[k] = m.Unit
	}
	want := map[string]string{}
	for _, m := range bf.EndToEnd {
		want[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics: perfbench %v, BENCHMARK.json %v", got, want)
	}

	var declared, printed []string
	for _, m := range bf.PerLayer {
		declared = append(declared, m.Name+" "+m.Unit)
	}
	for _, m := range perLayerMetrics() {
		printed = append(printed, m[0]+" "+m[1])
	}
	sort.Strings(declared)
	sort.Strings(printed)
	if !reflect.DeepEqual(declared, printed) {
		t.Errorf("per-layer metrics: perfbench %v, BENCHMARK.json %v", printed, declared)
	}
}
