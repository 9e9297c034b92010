package config

import (
	"math/rand"
	"testing"

	"repro/internal/grid"
)

func randomPattern(rng *rand.Rand, n, spread int) Config {
	nodes := make([]grid.Coord, n)
	for i := range nodes {
		nodes[i] = grid.Coord{Q: rng.Intn(2*spread) - spread, R: rng.Intn(2*spread) - spread}
	}
	return New(nodes...)
}

func TestPatternSetExactAndSlow(t *testing.T) {
	var s PatternSet
	small := Hexagon(grid.Origin)
	big := Line(grid.Origin, grid.E, 9) // inexact: exercises the string path
	for i, c := range []Config{small, big} {
		if !s.Add(c) {
			t.Fatalf("pattern %d reported as duplicate on first add", i)
		}
		if s.Add(c.Translate(grid.Coord{Q: 3, R: -2})) {
			t.Fatalf("translated pattern %d not recognized as duplicate", i)
		}
	}
	if s.Len() != 2 {
		t.Fatalf("PatternSet length %d, want 2", s.Len())
	}
}

func TestCompareOrdersConfigs(t *testing.T) {
	a := New(grid.Origin)
	b := New(grid.Origin, grid.Coord{Q: 1, R: 0})
	c := New(grid.Origin, grid.Coord{Q: 1, R: 1})
	if a.Compare(b) >= 0 || b.Compare(c) >= 0 || c.Compare(b) <= 0 {
		t.Fatal("Compare ordering broken")
	}
	if b.Compare(b) != 0 {
		t.Fatal("Compare not reflexive")
	}
}
