package enumerate

import (
	"os"
	"testing"

	"repro/internal/config"
	"repro/internal/grid"
)

// TestPolyhexCounts is experiment E3: the configuration-space sizes must
// match the fixed polyhex numbers; n=7 is the paper's "3652 patterns".
func TestPolyhexCounts(t *testing.T) {
	for n := 1; n <= 7; n++ {
		got := len(Connected(n))
		if got != KnownCounts[n] {
			t.Errorf("Connected(%d) produced %d patterns, want %d", n, got, KnownCounts[n])
		}
	}
}

// TestKnownCountsTwoTier cross-checks the extended KnownCounts table
// (through n = 12, OEIS A001207) against the key-native enumeration.
// Every size through 12 is inside the exact Key128 envelope, so a
// count mismatch means a dedup bug, not a key collision. The
// key-native engine moved the tiers down a weight class: 8–10 run
// even under -short (~0.6 s), 11 is routine (~3 s), and only 12
// (~20 s of CPU and a ≈131 MB key set) stays behind ENUM_HEAVY=1 —
// run it when touching the key or dedup code.
func TestKnownCountsTwoTier(t *testing.T) {
	top := 10
	if !testing.Short() {
		top = 11
	}
	if os.Getenv("ENUM_HEAVY") != "" {
		top = 12
	}
	for n := 8; n <= top; n++ {
		if got := Count(n); got != KnownCounts[n] {
			t.Errorf("Count(%d) = %d, want %d (A001207)", n, got, KnownCounts[n])
		}
	}
}

// TestN9CountPinned pins the n = 9 pattern-space size as a literal:
// 77359 (OEIS A001207). The E15 sweep (the first exact n = 9 FSYNC
// map) reports its breakdown over exactly this many patterns, so the
// constant is load-bearing for the experiment, not just a table entry
// — this test keeps it honest independently of any sweep by recounting
// the space from the enumeration itself. Routine (~1 s), no env gate.
func TestN9CountPinned(t *testing.T) {
	const want = 77359
	if KnownCounts[9] != want {
		t.Fatalf("KnownCounts[9] = %d, want %d (A001207)", KnownCounts[9], want)
	}
	if got := Count(9); got != want {
		t.Fatalf("Count(9) = %d, want %d", got, want)
	}
}

func TestCountMatchesConnected(t *testing.T) {
	for n := 1; n <= 6; n++ {
		if Count(n) != len(Connected(n)) {
			t.Errorf("Count(%d) = %d != len(Connected) = %d", n, Count(n), len(Connected(n)))
		}
	}
	if Count(0) != 0 {
		t.Errorf("Count(0) = %d", Count(0))
	}
}

func TestConnectedPropertiesHold(t *testing.T) {
	for n := 1; n <= 6; n++ {
		for _, c := range Connected(n) {
			if c.Len() != n {
				t.Fatalf("size-%d enumeration yielded %d-node config %v", n, c.Len(), c)
			}
			if !c.Connected() {
				t.Fatalf("enumeration yielded disconnected config %v", c)
			}
			if !c.Equal(c.Normalize()) {
				t.Fatalf("enumeration yielded non-normalized config %v", c)
			}
		}
	}
}

func TestConnectedNoDuplicates(t *testing.T) {
	for n := 1; n <= 6; n++ {
		seen := map[string]bool{}
		for _, c := range Connected(n) {
			k := c.Key()
			if seen[k] {
				t.Fatalf("duplicate pattern %v in size-%d enumeration", c, n)
			}
			seen[k] = true
		}
	}
}

func TestConnectedDeterministicOrder(t *testing.T) {
	a := Connected(5)
	b := Connected(5)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("enumeration order not deterministic at index %d", i)
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 0} {
		par, _ := ConnectedStats(6, workers)
		ser := Connected(6)
		if len(par) != len(ser) {
			t.Fatalf("workers=%d: %d patterns, want %d", workers, len(par), len(ser))
		}
		for i := range ser {
			if !par[i].Equal(ser[i]) {
				t.Fatalf("workers=%d: mismatch at %d: %v vs %v", workers, i, par[i], ser[i])
			}
		}
	}
}

func TestSevenIncludesKnownShapes(t *testing.T) {
	all := Connected(7)
	index := map[string]bool{}
	for _, c := range all {
		index[c.Key()] = true
	}
	known := []config.Config{
		config.Hexagon(grid.Origin),
		config.Line(grid.Origin, grid.E, 7),
		config.Line(grid.Origin, grid.NE, 7),
		config.Line(grid.Origin, grid.SE, 7),
	}
	for _, c := range known {
		if !index[c.Normalize().Key()] {
			t.Errorf("enumeration missing known shape %v", c)
		}
	}
}

func TestRotationsAreDistinct(t *testing.T) {
	// Robots share a compass, so an E-line and an NE-line are different
	// patterns and must both appear.
	e := config.Line(grid.Origin, grid.E, 3).Normalize().Key()
	ne := config.Line(grid.Origin, grid.NE, 3).Normalize().Key()
	if e == ne {
		t.Fatal("E-line and NE-line collapsed to one pattern")
	}
}

func TestSmallEnumerationsExplicit(t *testing.T) {
	// n=2: a domino in each of three distinct axes (E, NE, SE up to
	// translation; W/SW/NW dominoes are translations of those).
	two := Connected(2)
	if len(two) != 3 {
		t.Fatalf("n=2 gave %d patterns", len(two))
	}
	wantKeys := map[string]bool{
		config.New(grid.Origin, grid.Origin.Step(grid.E)).Normalize().Key():  true,
		config.New(grid.Origin, grid.Origin.Step(grid.NE)).Normalize().Key(): true,
		config.New(grid.Origin, grid.Origin.Step(grid.SE)).Normalize().Key(): true,
	}
	for _, c := range two {
		if !wantKeys[c.Key()] {
			t.Errorf("unexpected domino %v", c)
		}
	}
}

// TestEightCountAndExactKeys is the enumeration side of experiment E11:
// the n = 8 space has 16689 patterns (fixed octahexes), every one of
// them keyed exactly — Key128 at least, never the string fallback — and
// with all 16689 Key128 values distinct.
func TestEightCountAndExactKeys(t *testing.T) {
	all := Connected(8)
	if len(all) != KnownCounts[8] {
		t.Fatalf("Connected(8) produced %d patterns, want %d", len(all), KnownCounts[8])
	}
	seen := make(map[config.Key128]bool, len(all))
	for _, c := range all {
		k, exact := c.Key128()
		if !exact {
			t.Fatalf("n=8 pattern outside the 128-bit envelope: %s", c.Key())
		}
		if seen[k] {
			t.Fatalf("duplicate Key128 in n=8 enumeration: %s", c.Key())
		}
		seen[k] = true
	}
}

// TestMinDiameterAchievedByEnumeration pins config.MinDiameter against
// ground truth: for every size the smallest diameter over the full
// connected enumeration must equal the closed-form minimum, so the
// generalized gathering goal (config.GoalFor) is reachable at every n.
func TestMinDiameterAchievedByEnumeration(t *testing.T) {
	for n := 1; n <= 8; n++ {
		min := -1
		for _, c := range Connected(n) {
			if d := c.Diameter(); min < 0 || d < min {
				min = d
			}
		}
		if want := config.MinDiameter(n); min != want {
			t.Errorf("n=%d: enumeration min diameter %d, MinDiameter says %d", n, min, want)
		}
	}
}

func BenchmarkEnumerate6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(Connected(6)) != KnownCounts[6] {
			b.Fatal("bad count")
		}
	}
}

func BenchmarkEnumerate7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(Connected(7)) != KnownCounts[7] {
			b.Fatal("bad count")
		}
	}
}

func BenchmarkEnumerate7Parallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if list, _ := ConnectedStats(7, 0); len(list) != KnownCounts[7] {
			b.Fatal("bad count")
		}
	}
}
