package config

import (
	"math/rand"
	"testing"

	"repro/internal/grid"
)

// TestKey128AgreesWithKey is the contract: on exactly-encodable
// patterns, Key128 equality must coincide with string-Key equality —
// no collisions, no splits.
func TestKey128AgreesWithKey(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	byKey128 := map[Key128]string{}
	byKey := map[string]Key128{}
	for i := 0; i < 5000; i++ {
		c := randomPattern(rng, 1+rng.Intn(14), 7)
		k128, exact := c.Key128()
		if !exact {
			t.Fatalf("small pattern unexpectedly inexact: %s", c.Key())
		}
		ks := c.Key()
		if prev, ok := byKey128[k128]; ok && prev != ks {
			t.Fatalf("Key128 collision: %q and %q share %#x:%#x", prev, ks, k128.Hi, k128.Lo)
		}
		if prev, ok := byKey[ks]; ok && prev != k128 {
			t.Fatalf("one pattern, two Key128 values: %q -> %v and %v", ks, prev, k128)
		}
		byKey128[k128] = ks
		byKey[ks] = k128
	}
}

func TestKey128TranslationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		c := randomPattern(rng, 1+rng.Intn(14), 7)
		d := grid.Coord{Q: rng.Intn(40) - 20, R: rng.Intn(40) - 20}
		k1, ok1 := c.Key128()
		k2, ok2 := c.Translate(d).Key128()
		if ok1 != ok2 || k1 != k2 {
			t.Fatalf("translation changed key: %v/%v vs %v/%v for %s", k1, ok1, k2, ok2, c.Key())
		}
	}
}

func TestKey128FallsBackOutsideEnvelope(t *testing.T) {
	if _, exact := Line(grid.Origin, grid.E, 8).Key128(); !exact {
		t.Fatal("8-node pattern not exact under Key128")
	}
	if _, exact := Line(grid.Origin, grid.E, 14).Key128(); !exact {
		t.Fatal("14-node pattern not exact under Key128")
	}
	if _, exact := Line(grid.Origin, grid.E, 15).Key128(); exact {
		t.Fatal("15-node pattern claimed exact")
	}
	wide := New(grid.Origin, grid.Coord{Q: 16, R: 0})
	if _, exact := wide.Key128(); exact {
		t.Fatal("spread-16 pattern claimed exact")
	}
	if k, exact := (Config{}).Key128(); !exact || k != (Key128{}) {
		t.Fatalf("empty pattern: key %v exact %v", k, exact)
	}
}

// TestKey128HighWordUsed checks wide patterns genuinely spill into the
// high word — the encoding is 128-bit, not a truncated 64-bit one.
func TestKey128HighWordUsed(t *testing.T) {
	k, exact := Line(grid.Origin, grid.E, 9).Key128()
	if !exact {
		t.Fatal("9-node line not exact")
	}
	if k.Hi == 0 {
		t.Fatalf("9-node line (8·9+4 = 76 bits) left the high word empty: %#x:%#x", k.Hi, k.Lo)
	}
}

// TestPatternSetThreeTiers exercises both PatternSet tiers — Key128,
// with a one-word and a two-word key, and string — plus Reset's
// pooling contract.
func TestPatternSetThreeTiers(t *testing.T) {
	var s PatternSet
	small := Hexagon(grid.Origin)        // Key128 tier, Hi word zero
	mid := Line(grid.Origin, grid.E, 9)  // Key128 tier, Hi word used
	big := Line(grid.Origin, grid.E, 20) // string tier
	for i, c := range []Config{small, mid, big} {
		if !s.Add(c) {
			t.Fatalf("pattern %d reported as duplicate on first add", i)
		}
		if s.Add(c.Translate(grid.Coord{Q: 3, R: -2})) {
			t.Fatalf("translated pattern %d not recognized as duplicate", i)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("PatternSet length %d, want 3", s.Len())
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatalf("Reset left %d patterns", s.Len())
	}
	for i, c := range []Config{small, mid, big} {
		if !s.Add(c) {
			t.Fatalf("pattern %d still present after Reset", i)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("PatternSet length %d after reuse, want 3", s.Len())
	}
}
