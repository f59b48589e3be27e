package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"testing"
)

// pb is a minimal protobuf encoder for hand-built profiles.
type pb []byte

func (p pb) varint(v uint64) pb {
	for v >= 0x80 {
		p = append(p, byte(v)|0x80)
		v >>= 7
	}
	return append(p, byte(v))
}

func (p pb) uint(num int, v uint64) pb { return p.varint(uint64(num)<<3 | wireVarint).varint(v) }

func (p pb) bytes(num int, b []byte) pb {
	return append(p.varint(uint64(num)<<3|wireBytes).varint(uint64(len(b))), b...)
}

func (p pb) packed(num int, vs ...uint64) pb {
	var body pb
	for _, v := range vs {
		body = body.varint(v)
	}
	return p.bytes(num, body)
}

// handProfile encodes a CPU profile with sample types (samples, cpu) and
// three samples:
//
//	runtime.mallocgc <- [pagetable.accessVMA inlined into faas.invoke]   10 ns
//	runtime.gcBgMarkWorker                                               30 ns
//	faas.invoke                                                          20 ns
//
// The first sample's location IDs are packed, the others are not.
func handProfile() []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"repro/internal/pagetable.(*AddressSpace).accessVMA",
		"repro/internal/faas.(*Platform).invoke",
		"runtime.mallocgc", "runtime.gcBgMarkWorker"}
	var p pb
	p = p.bytes(fProfileSampleType, pb{}.uint(1, 1).uint(2, 2))
	p = p.bytes(fProfileSampleType, pb{}.uint(1, 3).uint(2, 4))
	for id := uint64(1); id <= 4; id++ {
		// Function id names string id+4.
		p = p.bytes(fProfileFunction, pb{}.uint(fFunctionID, id).uint(fFunctionName, id+4))
	}
	line := func(fn uint64) []byte { return pb{}.uint(fLineFunction, fn) }
	// Location 1: accessVMA inlined into invoke, innermost line first.
	p = p.bytes(fProfileLocation, pb{}.uint(fLocationID, 1).bytes(fLocationLine, line(1)).bytes(fLocationLine, line(2)))
	p = p.bytes(fProfileLocation, pb{}.uint(fLocationID, 2).bytes(fLocationLine, line(3)))
	p = p.bytes(fProfileLocation, pb{}.uint(fLocationID, 3).bytes(fLocationLine, line(4)))
	p = p.bytes(fProfileLocation, pb{}.uint(fLocationID, 4).bytes(fLocationLine, line(2)))
	p = p.bytes(fProfileSample, pb{}.packed(fSampleLocation, 2, 1).packed(fSampleValue, 1, 10))
	p = p.bytes(fProfileSample, pb{}.uint(fSampleLocation, 3).uint(fSampleValue, 3).uint(fSampleValue, 30))
	p = p.bytes(fProfileSample, pb{}.uint(fSampleLocation, 4).packed(fSampleValue, 2, 20))
	for _, s := range strs {
		p = p.bytes(fProfileString, []byte(s))
	}
	return p
}

func gzipped(t testing.TB, b []byte) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAttributeHandEncodedProfile(t *testing.T) {
	for name, data := range map[string][]byte{"raw": handProfile(), "gzip": gzipped(t, handProfile())} {
		t.Run(name, func(t *testing.T) {
			p, err := decodeProfile(data)
			if err != nil {
				t.Fatal(err)
			}
			if got := p.sampleTypes; len(got) != 2 || got[0] != "samples" || got[1] != "cpu" {
				t.Fatalf("sample types %q", got)
			}
			if got := p.total(p.valueIndex("samples")); got != 6 {
				t.Errorf("total samples %d, want 6", got)
			}
			shares := attribute(p, p.valueIndex("cpu"))
			want := map[string]float64{
				// The inlined pagetable frame is the innermost repo frame,
				// although its location also names faas.
				"pagetable": 10.0 / 60,
				// No repo frame at all.
				gcLayer: 30.0 / 60,
				"faas":  20.0 / 60,
			}
			if len(shares) != len(want) {
				t.Fatalf("shares %v, want %v", shares, want)
			}
			sum := 0.0
			for layer, w := range want {
				if math.Abs(shares[layer]-w) > 1e-12 {
					t.Errorf("%s share %v, want %v", layer, shares[layer], w)
				}
				sum += shares[layer]
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("shares sum to %v", sum)
			}
		})
	}
}

func TestDecodeProfileRejectsDanglingReferences(t *testing.T) {
	for name, data := range map[string][]byte{
		"unknown location": pb{}.bytes(fProfileSample, pb{}.uint(fSampleLocation, 9)),
		"unknown function": pb{}.bytes(fProfileLocation, pb{}.uint(fLocationID, 1).bytes(fLocationLine, pb{}.uint(fLineFunction, 9))).
			bytes(fProfileSample, pb{}.uint(fSampleLocation, 1)),
		"string index": pb{}.bytes(fProfileSampleType, pb{}.uint(1, 5)),
		"truncated":    handProfile()[:len(handProfile())-1],
	} {
		if _, err := decodeProfile(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestAttributeRealProfile decodes a profile written by runtime/pprof
// and checks that its shares still sum to one.
func TestAttributeRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	vi := p.valueIndex("alloc_space")
	if vi < 0 {
		t.Fatalf("no alloc_space in %q", p.sampleTypes)
	}
	sum := 0.0
	for _, s := range attribute(p, vi) {
		sum += s
	}
	if p.total(vi) > 0 && math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
}

func FuzzDecodeProfile(f *testing.F) {
	f.Add(handProfile())
	f.Add(gzipped(f, handProfile()))
	f.Add([]byte{0x1f, 0x8b})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := decodeProfile(data)
		if err != nil {
			return
		}
		for i := -1; i <= len(p.sampleTypes); i++ {
			attribute(p, i)
			p.total(i)
		}
	})
}
