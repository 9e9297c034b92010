package config

import (
	"math/rand"
	"testing"

	"repro/internal/grid"
)

// The decoder's contract is the exact round trip: FromKey128 ∘
// Key128Nodes is the identity on normalized patterns (the exhaustive
// check over every connected pattern n ≤ 8 lives in internal/enumerate,
// which owns the pattern generator); here the property is checked over
// random — including disconnected — node lists and fuzzed over raw key
// words (FuzzFromKey128), and malformed keys must be rejected, not
// mis-decoded.

func TestFromKey128RoundTripFuzzed(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 5000; i++ {
		c := randomPattern(rng, 1+rng.Intn(14), 7).Normalize()
		k, exact := c.Key128()
		if !exact {
			t.Fatalf("small pattern unexpectedly inexact: %s", c.Key())
		}
		back, err := FromKey128(k)
		if err != nil {
			t.Fatalf("FromKey128(%#x:%#x): %v", k.Hi, k.Lo, err)
		}
		if back.Compare(c) != 0 {
			t.Fatalf("round trip changed pattern: %s -> %#x:%#x -> %s", c.Key(), k.Hi, k.Lo, back.Key())
		}
	}
}

// TestFromKey128RoundTripUnnormalized pins the translation quotient:
// decoding the key of an untranslated pattern yields its normalized
// form, because the key never carried the absolute position.
func TestFromKey128RoundTripUnnormalized(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 2000; i++ {
		c := randomPattern(rng, 1+rng.Intn(14), 7)
		d := grid.Coord{Q: rng.Intn(30) - 15, R: rng.Intn(30) - 15}
		k, exact := c.Translate(d).Key128()
		if !exact {
			continue
		}
		back, err := FromKey128(k)
		if err != nil {
			t.Fatalf("FromKey128: %v", err)
		}
		if back.Compare(c.Normalize()) != 0 {
			t.Fatalf("decode is not the normalized pattern: %s vs %s", back.Key(), c.Normalize().Key())
		}
	}
}

func TestAppendKey128NodesReusesBuffer(t *testing.T) {
	c := New(grid.Origin, grid.Coord{Q: 1, R: 0}, grid.Coord{Q: 1, R: 1})
	k, _ := c.Key128()
	buf := make([]grid.Coord, 0, 16)
	got, err := AppendKey128Nodes(buf, k)
	if err != nil {
		t.Fatal(err)
	}
	if &got[:cap(got)][0] != &buf[:cap(buf)][0] {
		t.Fatal("decode into a sufficient buffer reallocated")
	}
	if FromSortedNodes(got).Compare(c) != 0 {
		t.Fatalf("decoded %v, want %v", got, c.Nodes())
	}
}

// TestFromKeyRejectsMalformed feeds values outside the encoders' image:
// they must error, never silently decode into some other pattern.
func TestFromKeyRejectsMalformed(t *testing.T) {
	cases := []Key128{
		{Lo: 15},                                // length field with no delta fields behind it
		{Lo: 2<<9 | 0<<5 | 31},                  // dr+15 = 31 is outside the field range
		{Lo: 2 << 9},                            // delta (0,-15)... decodes below origin: out of order
		{Lo: 3<<18 | 1<<14 | 15<<9 | 1<<5 | 14}, // nodes out of ascending order
		{Hi: 1 << 60},                           // no n ≤ 14 strips to a bare length field
	}
	for _, k := range cases {
		if _, err := FromKey128(k); err == nil {
			t.Errorf("FromKey128(%#x:%#x) accepted a malformed key", k.Hi, k.Lo)
		}
	}
}

// TestFromKey128Empty: the zero key is the empty pattern, matching
// Key128Nodes(nil).
func TestFromKey128Empty(t *testing.T) {
	c, err := FromKey128(Key128{})
	if err != nil || c.Len() != 0 {
		t.Fatalf("zero key decoded to %v, %v", c, err)
	}
}

// FuzzFromKey128 fuzzes the one key decoder over raw key words. Any
// key FromKey128 accepts must decode to a normalized pattern — sorted,
// duplicate-free, anchored at the origin, exactly what New and
// Normalize would build from its nodes — and re-encode through Key128
// to exactly that key; any other key must be rejected with an error,
// never a panic. The seed corpus lives in
// testdata/fuzz/FuzzFromKey128.
func FuzzFromKey128(f *testing.F) {
	f.Fuzz(func(t *testing.T, hi, lo uint64) {
		key := Key128{Hi: hi, Lo: lo}
		c, err := FromKey128(key)
		if err != nil {
			return
		}
		if !c.Equal(New(c.Nodes()...).Normalize()) {
			t.Fatalf("FromKey128(%#x:%#x) = %v, not a normalized pattern", hi, lo, c.Nodes())
		}
		back, exact := c.Key128()
		if !exact || back != key {
			t.Fatalf("FromKey128(%#x:%#x) = %s re-encodes to %#x:%#x (exact %v)",
				hi, lo, c.Key(), back.Hi, back.Lo, exact)
		}
	})
}
