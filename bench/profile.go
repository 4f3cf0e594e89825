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

// modulePrefix marks the frames a CPU sample can be charged to: functions
// of the program's own packages under internal/.
const modulePrefix = "beaconsec/internal/"

// layers are the per-layer self-time buckets, one per internal package
// the workloads reach, plus "other" for any internal package not listed
// and "runtime" for samples with no internal frame at all (the scheduler,
// the garbage collector, syscalls, and the benchmark's own code).
var layers = []string{
	"harness", "cache", "sim", "phy", "geo", "mac", "node", "core",
	"wormhole", "localization", "crypto", "packet", "revoke", "deploy",
	"scenario", "rng", "revnet", "metrics", "ident", "analysis",
	"other", "runtime",
}

// sample is one CPU-profile sample: its call stack as function names,
// innermost first, and the CPU time it stands for.
type sample struct {
	stack []string
	cpuNS int64
}

// layerOf names the layer a function belongs to: the internal package it
// is declared in, or "" for any function outside internal/.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range layers {
		if l == rest {
			return l
		}
	}
	return "other"
}

// attribute charges each sample to the innermost internal frame on its
// stack, so standard-library work (sorting, hashing, math, allocation)
// counts toward the layer that called it. Samples with no such frame go
// to "runtime". The returned map has an entry for every layer, and its
// values sum to total by construction.
func attribute(samples []sample) (byLayer map[string]int64, total int64) {
	byLayer = make(map[string]int64, len(layers))
	for _, l := range layers {
		byLayer[l] = 0
	}
	for _, s := range samples {
		layer := "runtime"
		for _, fn := range s.stack {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		byLayer[layer] += s.cpuNS
		total += s.cpuNS
	}
	return byLayer, total
}

// decodeCPUProfile reads the samples of a gzipped profile.proto CPU
// profile as runtime/pprof writes it. It decodes only the fields the
// attribution needs: sample type, samples, locations (with their inlined
// lines, innermost first), functions and the string table.
func decodeCPUProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		sampleTypes [][2]int64 // (type, unit) string indexes
		rawSamples  []rawSample
		locFuncs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames   = map[uint64]int64{}    // function id → name string index
		strs        []string
	)
	err = walkMessage(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var t [2]int64
			err := walkMessage(b, func(f int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					t[f-1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, t)
			return err
		case 2: // sample
			var s rawSample
			err := walkMessage(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			rawSamples = append(rawSamples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkMessage(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkMessage(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkMessage(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	cpu := -1
	for i, t := range sampleTypes {
		if str(t[0]) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]sample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		if cpu >= len(rs.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		s := sample{cpuNS: rs.values[cpu]}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				s.stack = append(s.stack, str(funcNames[fn]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// walkMessage calls fn for each field of a protobuf message: v carries a
// varint field's value, b a length-delimited field's bytes. Fixed-width
// fields are skipped; profile.proto uses none that matter here.
func walkMessage(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field := int(key >> 3)
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, which arrive
// either one per field (v) or packed into one length-delimited field (b).
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
