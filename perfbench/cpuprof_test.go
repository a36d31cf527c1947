package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
)

// pbuf hand-encodes the protobuf fields of a profile fixture.
type pbuf struct{ b []byte }

func (p *pbuf) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field<<3|wireVarint))
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pbuf) bytes(field int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field<<3|wireBytes))
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// profileFixture is a small CPU profile: seven functions, six
// locations (one holding an inlined call), and five samples, written
// the way runtime/pprof does, gzipped.
func profileFixture(t *testing.T) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.mallocgc",                       // 5
		"primopt/internal/numeric.(*LU).Factor",  // 6
		"primopt/internal/spice.(*Engine).Run",   // 7
		"main.main",                              // 8
		"primopt/internal/obs/telemetry.Handler", // 9
		"primopt/internal/paper.Table",           // 10
		"runtime.gcBgMarkWorker",                 // 11
	}
	var p pbuf
	for _, st := range [][2]uint64{{1, 2}, {3, 4}} {
		var vt pbuf
		vt.varint(1, st[0])
		vt.varint(2, st[1])
		p.bytes(1, vt.b)
	}
	// Samples: leaf-first location ids and (count, nanoseconds) values.
	samples := []struct {
		locs   []uint64
		ns     uint64
		packed bool
	}{
		{[]uint64{1, 2, 3}, 30e6, true}, // mallocgc <- numeric inlined in spice <- main: numeric
		{[]uint64{1, 3}, 20e6, true},    // no primopt frame: other
		{[]uint64{4}, 10e6, false},      // obs/telemetry: obs
		{[]uint64{5, 2}, 10e6, true},    // paper is not a named module: other
		{[]uint64{6}, 40e6, false},      // GC worker: other
	}
	for _, s := range samples {
		var sp pbuf
		if s.packed {
			sp.bytes(1, packed(s.locs...))
			sp.bytes(2, packed(s.ns/10e6, s.ns))
		} else {
			for _, l := range s.locs {
				sp.varint(1, l)
			}
			sp.varint(2, s.ns/10e6)
			sp.varint(2, s.ns)
		}
		p.bytes(2, sp.b)
	}
	// Locations: id and lines, innermost function first.
	locs := map[uint64][]uint64{1: {1}, 2: {2, 3}, 3: {4}, 4: {5}, 5: {6}, 6: {7}}
	for id := uint64(1); id <= 6; id++ {
		var lp pbuf
		lp.varint(1, id)
		for _, fn := range locs[id] {
			var line pbuf
			line.varint(1, fn)
			line.varint(2, 10)
			lp.bytes(4, line.b)
		}
		p.bytes(4, lp.b)
	}
	// Functions 1..7 name strings 5..11.
	for id := uint64(1); id <= 7; id++ {
		var fp pbuf
		fp.varint(1, id)
		fp.varint(2, id+4)
		p.bytes(5, fp.b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestAttributeCPU(t *testing.T) {
	parts, total, err := attributeCPU(profileFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	if total != 110e6 {
		t.Fatalf("total %d ns, want 110e6", total)
	}
	want := map[string]int64{"numeric": 30e6, "obs": 10e6, "other": 70e6}
	var sum int64
	for m, ns := range parts {
		sum += ns
		if ns != want[m] {
			t.Errorf("%s: %d ns, want %d", m, ns, want[m])
		}
	}
	if sum != total {
		t.Errorf("parts sum to %d ns, total %d", sum, total)
	}
	for _, m := range append(append([]string(nil), cpuModules...), "other") {
		if _, ok := parts[m]; !ok {
			t.Errorf("module %s missing from the attribution", m)
		}
	}
}

func TestModuleOf(t *testing.T) {
	cases := map[string]string{
		"primopt/internal/spice.(*Engine).Run":    "spice",
		"primopt/internal/obs/telemetry.Handler":  "obs",
		"primopt/internal/circuits.ROVCO.func1":   "circuits",
		"primopt/internal/evcache.(*Cache).DoCtx": "evcache",
		"primopt/perfbench.main":                  "",
		"runtime.mallocgc":                        "",
	}
	for fn, want := range cases {
		got, ok := moduleOf(fn)
		if got != want || ok != (want != "") {
			t.Errorf("moduleOf(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
}

func TestParseCPUProfileRejectsTruncatedInput(t *testing.T) {
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write([]byte{0x12, 0x05, 0x01}); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := attributeCPU(gz.Bytes()); err == nil {
		t.Fatal("a truncated profile parsed without error")
	}
}
