package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// profiledPackages are the layers whose share of CPU time a traced run
// reports, plus the Go runtime and its garbage collector.
var profiledPackages = []string{"cache", "sgx", "suvm", "rpc", "exitio", "seal", "kv", "runtime", "gc"}

// profileSelf reads a CPU profile (gzipped profile.proto, as
// runtime/pprof writes it) and returns the percentage of CPU time spent
// in each layer. A sample belongs to the innermost eleos/internal
// package on its stack, so standard-library work a layer calls (AES-GCM
// under seal, copies under hostmem) counts as the layer's own; samples
// under a garbage-collector entry point count as gc, and samples with no
// eleos frame (scheduler, idle) as runtime.
func profileSelf(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	var total int64
	for _, s := range p.samples {
		v := s.value
		total += v
		out[p.classify(s.locs)] += float64(v)
	}
	if total > 0 {
		for k := range out {
			out[k] = 100 * out[k] / float64(total)
		}
	}
	return out, nil
}

type profSample struct {
	locs  []uint64
	value int64 // the last sample value: CPU nanoseconds
}

type profile struct {
	samples []profSample
	locFns  map[uint64][]uint64 // location id → function ids, innermost first
	fnName  map[uint64]int64    // function id → string table index
	strs    []string
}

// classify names the layer a sample's stack (leaf first) belongs to.
func (p *profile) classify(locs []uint64) string {
	layer := ""
	for _, l := range locs {
		for _, fn := range p.locFns[l] {
			i := p.fnName[fn]
			if i < 0 || int(i) >= len(p.strs) {
				continue
			}
			name := p.strs[i]
			for _, gc := range []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"} {
				if strings.HasPrefix(name, gc) {
					return "gc"
				}
			}
			if rest, ok := strings.CutPrefix(name, "eleos/internal/"); ok && layer == "" {
				layer, _, _ = strings.Cut(rest, ".")
			}
		}
	}
	if layer == "" {
		return "runtime"
	}
	return layer
}

// parseProfile decodes the fields of profile.proto the benchmark needs:
// samples (location ids and values), locations (their functions, via
// lines) and functions (their names), and the string table.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFns: map[uint64][]uint64{}, fnName: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case 2: // Sample
			var s profSample
			err := eachField(msg, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, v, sub)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, v, sub); err != nil {
						return err
					}
					if len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(msg, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(sub, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.fnName[id] = name
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(msg))
		}
		return nil
	})
	return p, err
}

var errProto = errors.New("malformed profile")

// eachField walks one protobuf message, calling f with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, f func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := f(num, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value, or
// a packed run.
func appendVarints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errProto
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}
