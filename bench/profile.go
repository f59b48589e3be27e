package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profile is the part of a pprof profile.proto that layer attribution
// needs: the sample types, and each sample's values and stack.
type profile struct {
	sampleTypes []string
	samples     []profSample
}

// profSample is one stack sample. stack holds function names leaf first;
// within a location, inlined functions come before the function they were
// inlined into, as profile.proto orders a location's lines.
type profSample struct {
	values []int64
	stack  []string
}

// maxProfileBytes bounds a decompressed profile, so a corrupt or hostile
// input cannot exhaust memory.
const maxProfileBytes = 256 << 20

// profile.proto field numbers (github.com/google/pprof/proto/profile.proto).
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileString     = 6

	fValueTypeType = 1

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4

	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

// Protobuf wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

var (
	errTruncated = errors.New("profile: truncated protobuf")
	errBadIndex  = errors.New("profile: string index out of range")
)

// decodeProfile decodes a gzip-compressed or raw profile.proto message.
func decodeProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		raw, err := io.ReadAll(io.LimitReader(zr, maxProfileBytes+1))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if len(raw) > maxProfileBytes {
			return nil, errors.New("profile: decompressed profile too large")
		}
		data = raw
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs       []string
		typeIdx    []int64
		rawSamples []rawSample
		funcName   = map[uint64]int64{}    // function id -> string index
		locFuncs   = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err := eachField(data, func(num, typ int, v uint64, b []byte) error {
		switch {
		case num == fProfileString && typ == wireBytes:
			strs = append(strs, string(b))
		case num == fProfileSampleType && typ == wireBytes:
			var t int64
			err := eachField(b, func(num, typ int, v uint64, _ []byte) error {
				if num == fValueTypeType && typ == wireVarint {
					t = int64(v)
				}
				return nil
			})
			typeIdx = append(typeIdx, t)
			return err
		case num == fProfileSample && typ == wireBytes:
			var s rawSample
			err := eachField(b, func(num, typ int, v uint64, b []byte) error {
				switch num {
				case fSampleLocation:
					return repeatedVarint(typ, v, b, func(u uint64) { s.locs = append(s.locs, u) })
				case fSampleValue:
					return repeatedVarint(typ, v, b, func(u uint64) { s.values = append(s.values, int64(u)) })
				}
				return nil
			})
			rawSamples = append(rawSamples, s)
			return err
		case num == fProfileLocation && typ == wireBytes:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, typ int, v uint64, b []byte) error {
				switch {
				case num == fLocationID && typ == wireVarint:
					id = v
				case num == fLocationLine && typ == wireBytes:
					return eachField(b, func(num, typ int, v uint64, _ []byte) error {
						if num == fLineFunction && typ == wireVarint {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case num == fProfileFunction && typ == wireBytes:
			var id uint64
			var name int64
			err := eachField(b, func(num, typ int, v uint64, _ []byte) error {
				switch {
				case num == fFunctionID && typ == wireVarint:
					id = v
				case num == fFunctionName && typ == wireVarint:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strs)) {
			return "", errBadIndex
		}
		return strs[i], nil
	}
	p := &profile{}
	for _, t := range typeIdx {
		s, err := str(t)
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, s)
	}
	for _, rs := range rawSamples {
		ps := profSample{values: rs.values}
		for _, loc := range rs.locs {
			fns, ok := locFuncs[loc]
			if !ok {
				return nil, fmt.Errorf("profile: sample names unknown location %d", loc)
			}
			for _, fn := range fns {
				idx, ok := funcName[fn]
				if !ok {
					return nil, fmt.Errorf("profile: location %d names unknown function %d", loc, fn)
				}
				name, err := str(idx)
				if err != nil {
					return nil, err
				}
				ps.stack = append(ps.stack, name)
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// eachField calls fn for every field of the protobuf message in b: v
// carries varint, fixed32 and fixed64 values, and payload the bytes of a
// length-delimited field.
func eachField(b []byte, fn func(num, typ int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, typ := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch typ {
		case wireVarint:
			v, n = uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case wire64:
			if len(b) < 8 {
				return errTruncated
			}
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[8:]
		case wire32:
			if len(b) < 4 {
				return errTruncated
			}
			for i := 3; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[4:]
		case wireBytes:
			l, n := uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errTruncated
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", typ)
		}
		if err := fn(num, typ, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// repeatedVarint decodes one occurrence of a repeated integer field,
// packed (length-delimited) or not.
func repeatedVarint(typ int, v uint64, payload []byte, add func(uint64)) error {
	switch typ {
	case wireVarint:
		add(v)
	case wireBytes:
		for len(payload) > 0 {
			u, n := uvarint(payload)
			if n <= 0 {
				return errTruncated
			}
			add(u)
			payload = payload[n:]
		}
	}
	return nil
}

// uvarint decodes a base-128 varint; n <= 0 reports a truncated or
// overlong encoding.
func uvarint(b []byte) (v uint64, n int) {
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// valueIndex returns the index of the named sample type, or -1.
func (p *profile) valueIndex(sampleType string) int {
	for i, t := range p.sampleTypes {
		if t == sampleType {
			return i
		}
	}
	return -1
}

// total sums the values at index vi over every sample.
func (p *profile) total(vi int) int64 {
	var sum int64
	for _, s := range p.samples {
		if vi >= 0 && vi < len(s.values) {
			sum += s.values[vi]
		}
	}
	return sum
}

// repoPrefix marks the simulator's own packages in function names.
const repoPrefix = "repro/internal/"

// gcLayer collects samples with no simulator frame: the garbage
// collector, the scheduler and the benchmark's own code.
const gcLayer = "gc"

// layerOf names the layer a stack is charged to: the package of its
// innermost simulator frame, or gcLayer.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, repoPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
	}
	return gcLayer
}

// attribute charges each sample's value at index vi to its layer and
// returns each layer's share of the total (empty when the total is 0).
func attribute(p *profile, vi int) map[string]float64 {
	sums := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if vi < 0 || vi >= len(s.values) {
			continue
		}
		sums[layerOf(s.stack)] += s.values[vi]
		total += s.values[vi]
	}
	shares := map[string]float64{}
	if total == 0 {
		return shares
	}
	for layer, v := range sums {
		shares[layer] = float64(v) / float64(total)
	}
	return shares
}
