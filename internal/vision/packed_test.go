package vision

import (
	"testing"

	"repro/internal/config"
	"repro/internal/grid"
)

// somePatterns returns a small mixed bag of configurations to take views
// in: lines, the hexagon, and an L-shape.
func somePatterns() []config.Config {
	return []config.Config{
		config.Line(grid.Origin, grid.E, 7),
		config.Line(grid.Origin, grid.NE, 5),
		config.Line(grid.Origin, grid.SE, 3),
		config.Hexagon(grid.Origin),
		config.New(grid.Origin, grid.Coord{Q: 1, R: 0}, grid.Coord{Q: 1, R: 1},
			grid.Coord{Q: 1, R: 2}, grid.Coord{Q: 2, R: 2}),
	}
}

func TestPackUnpackRoundtrip(t *testing.T) {
	for _, c := range somePatterns() {
		for _, pos := range c.Nodes() {
			for rng := 0; rng <= MaxPackedRange; rng++ {
				v := Look(c, pos, rng)
				pv, ok := v.Pack()
				if !ok {
					t.Fatalf("range-%d view did not pack", rng)
				}
				back := pv.Unpack()
				if back.Key() != v.Key() {
					t.Fatalf("roundtrip changed view: %q -> %q", v.Key(), back.Key())
				}
				if pv.Count() != v.Count() {
					t.Fatalf("count mismatch: %d vs %d", pv.Count(), v.Count())
				}
				if pv.Range() != v.Range() {
					t.Fatalf("range mismatch: %d vs %d", pv.Range(), v.Range())
				}
			}
		}
	}
}

func TestPackedRobotMatchesView(t *testing.T) {
	for _, c := range somePatterns() {
		for _, pos := range c.Nodes() {
			v := Look(c, pos, 2)
			pv, _ := v.Pack()
			// Probe well beyond the range: out-of-range offsets must read
			// as empty on both representations.
			for _, rel := range grid.Origin.Disk(MaxPackedRange + 1) {
				if pv.Robot(rel) != v.Robot(rel) {
					t.Fatalf("Robot(%v) diverges: packed %v, view %v", rel, pv.Robot(rel), v.Robot(rel))
				}
			}
		}
	}
}

func TestLookPackedSortedMatchesLook(t *testing.T) {
	for _, c := range somePatterns() {
		nodes := c.Nodes()
		for _, pos := range nodes {
			for rng := 0; rng <= MaxPackedRange; rng++ {
				want, _ := Look(c, pos, rng).Pack()
				got, ok := LookPackedSorted(nodes, pos, rng)
				if !ok || got != want {
					t.Fatalf("LookPackedSorted(%v, r=%d) = %v, want %v", pos, rng, got, want)
				}
			}
		}
	}
}

func TestPackRangeTooLarge(t *testing.T) {
	c := config.Hexagon(grid.Origin)
	if _, ok := Look(c, grid.Origin, MaxPackedRange+1).Pack(); ok {
		t.Fatal("packed a view beyond MaxPackedRange")
	}
	if _, ok := LookPackedSorted(c.Nodes(), grid.Origin, MaxPackedRange+1); ok {
		t.Fatal("LookPackedSorted accepted a range beyond MaxPackedRange")
	}
}

func TestLookPackedSortedPanicsOffRobot(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic looking from an empty node")
		}
	}()
	LookPackedSorted(config.Hexagon(grid.Origin).Nodes(), grid.Coord{Q: 5, R: 5}, 2)
}

func TestDenseIndexInjectiveOverViews(t *testing.T) {
	// core's dense memo tables index the views of one range by
	// Bits()>>1, dropping the observer bit every valid view has set.
	for rng := 1; rng <= MaxPackedRange; rng++ {
		seen := map[uint64]string{}
		for _, c := range somePatterns() {
			for _, pos := range c.Nodes() {
				pv, _ := Look(c, pos, rng).Pack()
				if pv.Bits()&1 == 0 {
					t.Fatalf("range-%d view %v lacks the observer bit", rng, pv)
				}
				idx := pv.Bits() >> 1
				if idx >= 1<<(len(packedOffsets[rng])-1) {
					t.Fatalf("range-%d view %v: index %#x outside the dense table", rng, pv, idx)
				}
				want := pv.Unpack().Key()
				if prev, dup := seen[idx]; dup && prev != want {
					t.Fatalf("dense index collision at range %d: %q and %q share %#x", rng, prev, want, idx)
				}
				seen[idx] = want
			}
		}
	}
}

func TestDiskPrefixProperty(t *testing.T) {
	// Pack relies on smaller disks being prefixes of larger ones; pin it.
	big := grid.Origin.Disk(MaxPackedRange)
	for r := 0; r <= MaxPackedRange; r++ {
		small := grid.Origin.Disk(r)
		for i, o := range small {
			if big[i] != o {
				t.Fatalf("Disk(%d)[%d] = %v, but Disk(%d)[%d] = %v", r, i, o, MaxPackedRange, i, big[i])
			}
		}
	}
}
