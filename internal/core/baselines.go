package core

import (
	"repro/internal/grid"
	"repro/internal/vision"
)

// Idle is the trivial algorithm that never moves. It is the degenerate
// baseline: it is collision-free but gathers only when started gathered.
type Idle struct {
	// Range is the visibility range the views are taken at (default 2 when
	// zero); Idle ignores what it sees.
	Range int
}

// Name implements Algorithm.
func (Idle) Name() string { return "idle" }

// VisibilityRange implements Algorithm.
func (a Idle) VisibilityRange() int {
	if a.Range <= 0 {
		return 2
	}
	return a.Range
}

// Compute implements Algorithm: never move.
func (Idle) Compute(vision.View) Move { return Stay }

// ComputePacked implements PackedAlgorithm: never move, no table needed.
func (Idle) ComputePacked(vision.PackedView) Move { return Stay }

// GreedyEast is the naive baseline the paper's guards exist to beat: every
// robot that sees a robot node with a strictly larger x-element than every
// node of its own column steps toward it (east if possible, otherwise the
// diagonal toward the target) with no collision avoidance. The evaluation
// harness uses it to show that unguarded eastward compaction collides or
// disconnects on most initial configurations.
type GreedyEast struct{}

// Name implements Algorithm.
func (GreedyEast) Name() string { return "greedy-east" }

// VisibilityRange implements Algorithm; the greedy baseline uses the same
// range-2 views as the paper's algorithm so the comparison isolates the
// rule design, not the sensing power.
func (GreedyEast) VisibilityRange() int { return 2 }

// Compute implements Algorithm.
func (GreedyEast) Compute(v vision.View) Move {
	// Find the rightmost robot node in view (largest x-element, ties
	// broken toward small |y|, then positive y for determinism).
	best := grid.Label{}
	found := false
	for _, rel := range v.Robots() {
		lb := grid.LabelOf(rel)
		if lb == (grid.Label{}) {
			continue
		}
		if !found || betterTarget(lb, best) {
			best, found = lb, true
		}
	}
	if !found || best.X <= 0 {
		return Stay
	}
	// Step toward the target: prefer pure east, else the diagonal that
	// reduces the y gap.
	switch {
	case best.Y > 0 && v.EmptyL(grid.L(1, 1)):
		return MoveIn(grid.NE)
	case best.Y < 0 && v.EmptyL(grid.L(1, -1)):
		return MoveIn(grid.SE)
	case v.EmptyL(grid.L(2, 0)):
		return MoveIn(grid.E)
	}
	return Stay
}

// greedyMemo backs GreedyEast.ComputePacked; like the Gatherer memos it
// is process-wide — GreedyEast is stateless, so decisions never go stale.
var greedyMemo memoTable

// ComputePacked implements PackedAlgorithm.
func (g GreedyEast) ComputePacked(pv vision.PackedView) Move { return greedyMemo.compute(g, pv) }

func betterTarget(a, b grid.Label) bool {
	if a.X != b.X {
		return a.X > b.X
	}
	ay, by := abs(a.Y), abs(b.Y)
	if ay != by {
		return ay < by
	}
	return a.Y > b.Y
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

var (
	_ PackedAlgorithm = Idle{}
	_ PackedAlgorithm = GreedyEast{}
)
