package core

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/grid"
	"repro/internal/vision"
)

func TestMemoizeMatchesCompute(t *testing.T) {
	memo := NewMemo()
	wrapped := Memoize(GreedyEast{}, memo)
	if wrapped.Name() != (GreedyEast{}).Name() || wrapped.VisibilityRange() != 2 {
		t.Fatal("Memoize changed identity")
	}
	c := config.Line(grid.Origin, grid.E, 7)
	for _, pos := range c.Nodes() {
		v := vision.Look(c, pos, 2)
		pv, _ := v.Pack()
		want := wrapped.Compute(v)
		if got := wrapped.ComputePacked(pv); got != want {
			t.Fatalf("first lookup: %v, want %v", got, want)
		}
		if got := wrapped.ComputePacked(pv); got != want { // cached hit
			t.Fatalf("cached lookup: %v, want %v", got, want)
		}
	}
	if memo.Len() == 0 {
		t.Fatal("memo table stayed empty")
	}
}

// TestMemoConcurrent hammers one table from many goroutines; run with
// -race this doubles as the data-race check for the atomic entries.
func TestMemoConcurrent(t *testing.T) {
	memo := NewMemo()
	alg := Memoize(Gatherer{}, memo)
	views := make([]vision.PackedView, 0, 64)
	for _, c := range []config.Config{
		config.Line(grid.Origin, grid.E, 7),
		config.Line(grid.Origin, grid.NE, 7),
		config.Hexagon(grid.Origin),
	} {
		for _, pos := range c.Nodes() {
			pv, _ := vision.Look(c, pos, 2).Pack()
			views = append(views, pv)
		}
	}
	want := make([]Move, len(views))
	for i, pv := range views {
		want[i] = (Gatherer{}).Compute(pv.Unpack())
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 200; rep++ {
				for i, pv := range views {
					if got := alg.ComputePacked(pv); got != want[i] {
						t.Errorf("view %d: %v, want %v", i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestGathererCustomTableBypassesMemo(t *testing.T) {
	// A Gatherer carrying a synthesizer table must not leak decisions
	// into (or read stale ones from) any memo: two different tables for
	// the same view must decide differently.
	c := config.Line(grid.Origin, grid.E, 7)
	pos := c.Nodes()[0] // western end: the full algorithm moves it
	v := vision.Look(c, pos, 2)
	pv, _ := v.Pack()
	key := v.Key()
	// NE from the western end is connectivity-safe (the destination stays
	// adjacent to the robot at (1,0)), so the override survives the guard.
	a := Gatherer{Table: map[string]Move{key: Stay}}
	b := Gatherer{Table: map[string]Move{key: MoveIn(grid.NE)}}
	if got := a.ComputePacked(pv); got != Stay {
		t.Fatalf("table A: %v, want stay", got)
	}
	if got := b.ComputePacked(pv); got != MoveIn(grid.NE) {
		t.Fatalf("table B: %v, want NE", got)
	}
}

// TestSharedMemoSegregatesAlgorithms is the reason Memo keys tables by
// algorithm name: one cache handed to two algorithms (the recommended
// ablation-series usage) must never serve one algorithm's cached move
// to the other for the same view.
func TestSharedMemoSegregatesAlgorithms(t *testing.T) {
	memo := NewMemo()
	greedy := Memoize(GreedyEast{}, memo)
	idle := Memoize(Idle{}, memo)
	c := config.Line(grid.Origin, grid.NE, 7)
	pos := c.Nodes()[0] // south end of a NE line: greedy steps E, idle never moves
	pv, _ := vision.Look(c, pos, 2).Pack()
	if got := greedy.ComputePacked(pv); !got.IsMove() {
		t.Fatalf("greedy-east stayed at the south end of a NE line: %v", got)
	}
	if got := idle.ComputePacked(pv); got != Stay {
		t.Fatalf("idle served greedy's cached decision from the shared memo: %v", got)
	}
	full := Memoize(Gatherer{}, memo)
	paper := Memoize(Gatherer{Variant: VariantPaper}, memo)
	for _, p := range c.Nodes() {
		v, _ := vision.Look(c, p, 2).Pack()
		_ = full.ComputePacked(v) // warm the cache with the full variant first
		if got, want := paper.ComputePacked(v), (Gatherer{Variant: VariantPaper}).Compute(v.Unpack()); got != want {
			t.Fatalf("paper variant served a wrong cached move: %v, want %v", got, want)
		}
	}
}

// TestDenseTableAllRange2Views checks the dense view→move tables on
// every one of the 2^18 range-2 views: each mask with the observer bit
// set is laid out as a sorted node set, looked at with the simulator's
// LookPackedSorted, and both the process-wide Gatherer table and a
// fresh caller-owned Memo must decide exactly as Compute does, on the
// lookup that fills the entry and on the one that reads it back.
func TestDenseTableAllRange2Views(t *testing.T) {
	disk := grid.Origin.Disk(2)
	memoized := Memoize(Gatherer{}, NewMemo())
	const views = 1 << 18
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			nodes := make([]grid.Coord, 0, len(disk))
			for idx := w; idx < views; idx += workers {
				mask := uint64(idx)<<1 | 1
				nodes = nodes[:0]
				for i, o := range disk {
					if mask&(1<<uint(i)) != 0 {
						nodes = append(nodes, o)
					}
				}
				pv, ok := vision.LookPackedSorted(config.New(nodes...).Nodes(), grid.Origin, 2)
				if !ok || pv.Bits() != mask {
					t.Errorf("mask %#x: LookPackedSorted gave %#x (ok=%v)", mask, pv.Bits(), ok)
					return
				}
				want := (Gatherer{}).Compute(pv.Unpack())
				for pass := 0; pass < 2; pass++ { // a miss that fills, then a hit
					if got := (Gatherer{}).ComputePacked(pv); got != want {
						t.Errorf("mask %#x pass %d: Gatherer.ComputePacked %v, Compute %v", mask, pass, got, want)
						return
					}
					if got := memoized.ComputePacked(pv); got != want {
						t.Errorf("mask %#x pass %d: Memoized.ComputePacked %v, Compute %v", mask, pass, got, want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
