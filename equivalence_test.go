package repro

// The packed engine (bitmask views, memoized ComputePacked, compact
// pattern keys, the allocation-free round loop) is a pure optimization:
// it must be observationally identical to the legacy map/string path.
// These tests pin that down at every layer the refactor touched —
// per-view decisions, enumeration dedup, and the full Theorem 2 sweep.

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/enumerate"
	"repro/internal/exhaustive"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/vision"
)

// legacyOnly hides an algorithm's ComputePacked method, forcing sim.Run
// and exhaustive.Verify onto the legacy map-based path.
type legacyOnly struct{ core.Algorithm }

// TestComputePackedMatchesCompute checks, for every view arising in the
// full n=7 enumeration (every robot of every one of the 3652 initial
// patterns) and every shipped packed algorithm, that the packed fast
// path decides exactly what the legacy Compute decides.
func TestComputePackedMatchesCompute(t *testing.T) {
	algs := []core.PackedAlgorithm{
		core.Gatherer{},
		core.Gatherer{Variant: core.VariantNoTable},
		core.Gatherer{Variant: core.VariantNoReconstruction},
		core.Gatherer{Variant: core.VariantPaper},
		core.GreedyEast{},
		core.Idle{},
	}
	views := 0
	for _, c := range enumerate.Connected(7) {
		for _, pos := range c.Nodes() {
			v := vision.Look(c, pos, 2)
			pv, ok := v.Pack()
			if !ok {
				t.Fatalf("range-2 view failed to pack: %s", v.Key())
			}
			views++
			for _, alg := range algs {
				if got, want := alg.ComputePacked(pv), alg.Compute(v); got != want {
					t.Fatalf("%s: ComputePacked=%v Compute=%v on view %s",
						alg.Name(), got, want, v.Key())
				}
			}
		}
	}
	if views != 7*enumerate.KnownCounts[7] {
		t.Fatalf("swept %d views, want %d", views, 7*enumerate.KnownCounts[7])
	}
}

// TestThreeGathererPackedMatchesCompute covers the E10 algorithm on its
// own configuration space (all 11 connected 3-robot patterns).
func TestThreeGathererPackedMatchesCompute(t *testing.T) {
	for _, c := range enumerate.Connected(3) {
		for _, pos := range c.Nodes() {
			v := vision.Look(c, pos, 2)
			pv, _ := v.Pack()
			alg := core.ThreeGatherer{}
			if got, want := alg.ComputePacked(pv), alg.Compute(v); got != want {
				t.Fatalf("three-gatherer: ComputePacked=%v Compute=%v on %s", got, want, v.Key())
			}
		}
	}
}

// legacyConnected is the pre-refactor enumeration: growth deduplicated
// by canonical string key. It is the reference the Key128 dedup of the
// key-native engine must reproduce exactly.
func legacyConnected(n int) map[string]config.Config {
	current := map[string]config.Config{
		config.New(grid.Origin).Key(): config.New(grid.Origin),
	}
	for size := 1; size < n; size++ {
		next := make(map[string]config.Config, len(current)*4)
		for _, c := range current {
			set := c.Set()
			for _, v := range c.Nodes() {
				for _, nb := range v.Neighbors() {
					if set[nb] {
						continue
					}
					ext := config.New(append(c.Nodes(), nb)...).Normalize()
					next[ext.Key()] = ext
				}
			}
		}
		current = next
	}
	return current
}

// TestCompactDedupMatchesStringDedup checks that the compact-key
// enumeration produces exactly the same pattern set as string-key
// dedup for every size through n=8: sizes 1..7 cover the paper's 3652
// patterns, whose keys fit Key128's low word, and n=8 covers the full
// 16689-pattern E11 space, whose keys spill into the high word.
func TestCompactDedupMatchesStringDedup(t *testing.T) {
	top := 8
	if testing.Short() {
		top = 7
	}
	for n := 1; n <= top; n++ {
		want := legacyConnected(n)
		got := enumerate.Connected(n)
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d patterns, want %d", n, len(got), len(want))
		}
		for _, c := range got {
			if _, ok := want[c.Key()]; !ok {
				t.Fatalf("n=%d: pattern %s not in string-keyed reference", n, c.Key())
			}
		}
	}
}

// TestPackedSweepReportMatchesLegacy runs the full Theorem 2 sweep twice
// — once on the packed fast path, once with ComputePacked hidden so
// every layer falls back to the legacy map/string machinery — and
// requires the reports to be byte-identical: same per-case status,
// rounds and moves for all 3652 patterns, same aggregates, same
// rendering.
func TestPackedSweepReportMatchesLegacy(t *testing.T) {
	if testing.Short() {
		t.Skip("full 2×3652-pattern sweep in -short mode")
	}
	packed := exhaustive.Verify(core.Gatherer{}, exhaustive.Options{})
	legacy := exhaustive.Verify(legacyOnly{core.Gatherer{}}, exhaustive.Options{})
	if got, want := packed.String(), legacy.String(); got != want {
		t.Fatalf("report mismatch:\npacked: %s\nlegacy: %s", got, want)
	}
	if !reflect.DeepEqual(packed.ByStatus, legacy.ByStatus) {
		t.Fatalf("status counts diverge: %v vs %v", packed.ByStatus, legacy.ByStatus)
	}
	if packed.MaxRounds != legacy.MaxRounds || packed.MeanRounds != legacy.MeanRounds ||
		packed.MaxMoves != legacy.MaxMoves || packed.MeanMoves != legacy.MeanMoves {
		t.Fatal("aggregate round/move statistics diverge")
	}
	if len(packed.Cases) != len(legacy.Cases) {
		t.Fatalf("case counts diverge: %d vs %d", len(packed.Cases), len(legacy.Cases))
	}
	for i := range packed.Cases {
		p, l := packed.Cases[i], legacy.Cases[i]
		if !p.Initial.Equal(l.Initial) || p.Status != l.Status || p.Rounds != l.Rounds || p.Moves != l.Moves {
			t.Fatalf("case %d diverges: packed %v/%d/%d legacy %v/%d/%d on %s",
				i, p.Status, p.Rounds, p.Moves, l.Status, l.Rounds, l.Moves, p.Initial.Key())
		}
	}
}

// TestPackedRunMatchesLegacyOnEight extends the packed/legacy
// equivalence past the paper's size: on a sample of the 16689-pattern
// n=8 space (experiment E11), with the generalized minimum-diameter
// goal defaulting in, both paths must agree case for case — including
// the failure statuses the seven-robot algorithm produces out of its
// depth.
func TestPackedRunMatchesLegacyOnEight(t *testing.T) {
	initials := enumerate.Connected(8)
	opts := sim.Options{DetectCycles: true, StopOnDisconnect: true}
	for i := 0; i < len(initials); i += 167 { // ~100 sampled cases
		c := initials[i]
		p := sim.Run(core.Gatherer{}, c, opts)
		l := sim.Run(legacyOnly{core.Gatherer{}}, c, opts)
		if p.Status != l.Status || p.Rounds != l.Rounds || p.Moves != l.Moves || !p.Final.Equal(l.Final) {
			t.Fatalf("n=8 %s: packed %v/%d/%d legacy %v/%d/%d",
				c.Key(), p.Status, p.Rounds, p.Moves, l.Status, l.Rounds, l.Moves)
		}
	}
}

// TestPackedRunMatchesLegacyOnFailures exercises the failure statuses
// (collision, disconnection, livelock, stall) through both paths with
// the baselines, since the Gatherer sweep only ever gathers.
func TestPackedRunMatchesLegacyOnFailures(t *testing.T) {
	initials := enumerate.Connected(7)
	sort.Slice(initials, func(i, j int) bool { return initials[i].Compare(initials[j]) < 0 })
	opts := sim.Options{DetectCycles: true, StopOnDisconnect: true, MaxRounds: 500}
	for _, alg := range []core.Algorithm{core.GreedyEast{}, core.Idle{}} {
		for i := 0; i < len(initials); i += 37 { // sampled: ~100 cases per algorithm
			c := initials[i]
			p := sim.Run(alg, c, opts)
			l := sim.Run(legacyOnly{alg}, c, opts)
			if p.Status != l.Status || p.Rounds != l.Rounds || p.Moves != l.Moves || !p.Final.Equal(l.Final) {
				t.Fatalf("%s on %s: packed %v/%d/%d legacy %v/%d/%d",
					alg.Name(), c.Key(), p.Status, p.Rounds, p.Moves, l.Status, l.Rounds, l.Moves)
			}
			if (p.Collision == nil) != (l.Collision == nil) {
				t.Fatalf("%s on %s: collision info presence diverges", alg.Name(), c.Key())
			}
			if p.Collision != nil && *p.Collision != *l.Collision {
				t.Fatalf("%s on %s: collision info diverges: %+v vs %+v",
					alg.Name(), c.Key(), *p.Collision, *l.Collision)
			}
		}
	}
}
