package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuModules are the primopt/internal packages the CPU attribution
// names; a sample whose innermost primopt/internal frame lies in any
// other package, or that has no such frame (GC workers, the scheduler,
// net/http, perfbench itself), is charged to "other".
var cpuModules = []string{
	"numeric", "spice", "device", "circuit", "circuits", "primlib", "cellgen",
	"extract", "lde", "evcache", "pdk", "optimize", "place", "route", "portopt",
	"verify", "serve", "obs", "flow", "geom", "measure", "cost", "fault",
}

const internalPrefix = "primopt/internal/"

// cpuProfile is the part of a pprof CPU profile the attribution needs.
type cpuProfile struct {
	samples   []cpuSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type cpuSample struct {
	locs   []uint64 // leaf first
	values []int64
}

// attributeCPU charges every sample's CPU nanoseconds to the module of
// its innermost primopt/internal frame. It returns nanoseconds per
// module (cpuModules plus "other") and the profile total; the parts
// sum to the total exactly.
func attributeCPU(gz []byte) (map[string]int64, int64, error) {
	p, err := parseCPUProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	known := map[string]bool{}
	parts := map[string]int64{"other": 0}
	for _, m := range cpuModules {
		known[m] = true
		parts[m] = 0
	}
	var total int64
	for _, s := range p.samples {
		// A CPU profile's sample types are (samples/count, cpu/nanoseconds).
		if len(s.values) < 2 {
			return nil, 0, errors.New("cpu profile: sample without a nanoseconds value")
		}
		ns := s.values[1]
		total += ns
		mod := "other"
	frames:
		for _, loc := range s.locs {
			for _, fn := range p.locations[loc] {
				if m, ok := moduleOf(p.funcName(fn)); ok {
					if known[m] {
						mod = m
					}
					break frames
				}
			}
		}
		parts[mod] += ns
	}
	return parts, total, nil
}

// moduleOf returns the primopt/internal package a function belongs to:
// "primopt/internal/spice.(*Engine).run" -> "spice",
// "primopt/internal/obs/telemetry.Handler" -> "obs".
func moduleOf(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}

func (p *cpuProfile) funcName(id uint64) string {
	i, ok := p.functions[id]
	if !ok || i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// parseCPUProfile decodes the gzipped protobuf runtime/pprof writes,
// keeping samples, locations, functions and the string table.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &cpuProfile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = walkFields(raw, func(field int, wire int, v uint64, msg []byte) error {
		switch field {
		case 2: // sample
			var s cpuSample
			err := walkFields(msg, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, u := range appendVarints(nil, w, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(msg, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(msg, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// Protobuf wire types used by the profile format.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

var errTruncated = errors.New("truncated protobuf")

// walkFields calls fn for each field of one protobuf message, passing
// the varint value or, for length-delimited fields, the payload.
func walkFields(b []byte, fn func(field, wire int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var msg []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case wire64:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case wire32:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, which the encoder
// writes either packed (one length-delimited run) or one per field.
func appendVarints(dst []uint64, wire int, v uint64, packed []byte) []uint64 {
	if wire != wireBytes {
		return append(dst, v)
	}
	for len(packed) > 0 {
		u, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		packed = packed[n:]
	}
	return dst
}
