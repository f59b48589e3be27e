package obs

import "strconv"

// Trace identity is derived, not random: IDs are FNV-1a hashes of
// stable strings (node name, function, per-platform sequence number),
// so a fixed seed reproduces the exact same TraceIDs across runs and
// exported artifacts (traces, exemplars, analysis reports) stay
// byte-identical and cross-referenceable.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvPart continues the FNV-1a hash h over p and then the separator
// 0x1f, so ("a","bc") and ("ab","c") hash differently.
func fnvPart[T string | []byte](h uint64, p T) uint64 {
	for i := 0; i < len(p); i++ {
		h ^= uint64(p[i])
		h *= fnvPrime
	}
	h ^= 0x1f
	return h * fnvPrime
}

// fnv1a64 hashes parts with FNV-1a, one separator after each.
func fnv1a64(parts ...string) uint64 {
	h := uint64(fnvOffset)
	for _, p := range parts {
		h = fnvPart(h, p)
	}
	return h
}

// putHex writes the low 4·len(b) bits of v into b as lowercase hex
// digits, most significant first.
func putHex(b []byte, v uint64) {
	const digits = "0123456789abcdef"
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
}

// TraceIDFor derives a deterministic 16-hex-digit trace identifier from
// the given parts (typically node, function, and invocation sequence).
func TraceIDFor(parts ...string) string {
	var b [16]byte
	putHex(b[:], fnv1a64(parts...))
	return string(b[:])
}

// SpanID identifies a span within its trace. The zero SpanID means
// unset; a set one holds the low 32 bits of the FNV-1a hash of the
// trace ID and the span's depth-first walk index, plus bit 32, so a
// hash of zero is still a set ID.
type SpanID uint64

const spanIDSet SpanID = 1 << 32

// spanIDAt derives the ID of the span at walkIndex in a tree whose
// trace ID hashed to h (fnvPart from fnvOffset).
func spanIDAt(h uint64, walkIndex int) SpanID {
	var digits [20]byte
	return SpanID(uint32(fnvPart(h, strconv.AppendInt(digits[:0], int64(walkIndex), 10)))) | spanIDSet
}

// String renders the ID as 8 hex digits, or "" when it is unset.
func (id SpanID) String() string {
	if id == 0 {
		return ""
	}
	var b [8]byte
	putHex(b[:], uint64(id))
	return string(b[:])
}

// MarshalText renders the ID as String does, so JSON carries it as a
// string; a field tagged omitempty omits an unset ID.
func (id SpanID) MarshalText() ([]byte, error) { return []byte(id.String()), nil }

// Link is a causal reference from one span to a span in another trace —
// a cluster dispatch pointing at the invocation it placed, a restore's
// remote fetch pointing at the memory-pool span that served it, an
// eviction pointing at the invocation whose admission triggered it.
type Link struct {
	TraceID string `json:"trace_id"`
	SpanID  SpanID `json:"span_id,omitempty"`
	// Type names the causal relation ("remote-fetch", "serves",
	// "evicted-by", "after").
	Type string `json:"type,omitempty"`
}
