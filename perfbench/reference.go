package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"

	"primopt/internal/circuits"
	"primopt/internal/evcache"
	"primopt/internal/flow"
	"primopt/internal/pdk"
)

// referenceJSON is the recorded output of every input the workloads
// can draw (see -record).
//
//go:embed reference.json
var referenceJSON []byte

// refEntry is the recorded outcome of one (circuit, mode, seed): the
// metric map, each value in its shortest round-trip decimal form so
// the comparison is bit for bit, or the error the flow returned.
type refEntry struct {
	Metrics map[string]string `json:"metrics,omitempty"`
	Error   string            `json:"error,omitempty"`
}

// referenceFile is the on-disk form of the reference.
type referenceFile struct {
	Note    string              `json:"note"`
	Entries map[string]refEntry `json:"entries"`
}

// reference maps refKey(circuit, mode, seed) to its recorded outcome.
type reference map[string]refEntry

// refKey names one recorded input. Schematic mode ignores the seed.
func refKey(circuit string, mode flow.Mode, seed int64) string {
	if mode == flow.Schematic {
		seed = 0
	}
	return fmt.Sprintf("%s/%s/%d", circuit, mode, seed)
}

func parseReference(b []byte) (reference, error) {
	var f referenceFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("parse reference: %w", err)
	}
	if len(f.Entries) == 0 {
		return nil, fmt.Errorf("parse reference: no entries")
	}
	return reference(f.Entries), nil
}

// sameBits reports whether two floats are the identical value: equal
// bit patterns, with every NaN equal to every other NaN.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// check compares one op's outcome with the recorded one. runErr is the
// error text the op ended with ("" on success). It returns a non-nil
// error when the outcome differs: other metric values, another error,
// or success where failure was recorded (and the reverse). An op that
// fails exactly as recorded passes the check; it is still a failed op.
func (r reference) check(key string, metrics map[string]float64, runErr string) error {
	want, ok := r[key]
	if !ok {
		return fmt.Errorf("%s: no reference entry", key)
	}
	if want.Error != "" || runErr != "" {
		if want.Error != runErr {
			return fmt.Errorf("%s: error %q, reference %q", key, runErr, want.Error)
		}
		return nil
	}
	if len(metrics) != len(want.Metrics) {
		return fmt.Errorf("%s: %d metrics, reference has %d", key, len(metrics), len(want.Metrics))
	}
	for _, name := range sortedKeys(want.Metrics) {
		wv, err := strconv.ParseFloat(want.Metrics[name], 64)
		if err != nil {
			return fmt.Errorf("%s: reference %s: %w", key, name, err)
		}
		got, ok := metrics[name]
		if !ok {
			return fmt.Errorf("%s: metric %s missing", key, name)
		}
		if !sameBits(got, wv) {
			return fmt.Errorf("%s: %s = %s, reference %s", key, name, formatExact(got), want.Metrics[name])
		}
	}
	return nil
}

// formatExact renders v in the shortest decimal that parses back to
// the same bits.
func formatExact(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// recordReference runs every input the workloads can draw — each
// circuit in schematic mode, each pool pair in optimized mode with a
// fresh cache — and writes the outcomes to path.
func recordReference(ctx context.Context, path string) error {
	tech := pdk.Default()
	f := referenceFile{
		Note:    "Outputs of every input the perfbench workloads draw; regenerate with -record only when a change is meant to alter flow outputs.",
		Entries: map[string]refEntry{},
	}
	add := func(circuit string, mode flow.Mode, seed int64) error {
		bm, err := circuits.Build(tech, circuit, rovcoStages)
		if err != nil {
			return err
		}
		p := flow.Params{Seed: seed}
		if mode != flow.Schematic {
			p.Optimize.Cache = evcache.New()
		}
		var e refEntry
		res, err := flow.RunContext(ctx, tech, bm, mode, p)
		if err != nil {
			e.Error = err.Error()
		} else {
			e.Metrics = map[string]string{}
			for k, v := range res.Metrics {
				e.Metrics[k] = formatExact(v)
			}
		}
		key := refKey(circuit, mode, seed)
		f.Entries[key] = e
		fmt.Fprintf(os.Stderr, "recorded %s (error %q)\n", key, e.Error)
		return nil
	}
	for _, c := range append([]string{"rovco"}, smallCircuits...) {
		if err := add(c, flow.Schematic, 0); err != nil {
			return err
		}
	}
	for s := int64(1); s <= rovcoSeeds; s++ {
		if err := add("rovco", flow.Optimized, s); err != nil {
			return err
		}
	}
	for _, c := range smallCircuits {
		for s := int64(1); s <= smallSeeds; s++ {
			if err := add(c, flow.Optimized, s); err != nil {
				return err
			}
		}
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
