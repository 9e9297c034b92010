package enumerate

import (
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/grid"
)

func TestConnectedWithin1MatchesConnected(t *testing.T) {
	for n := 1; n <= 5; n++ {
		a := Connected(n)
		b := ConnectedWithin(n, 1)
		if len(a) != len(b) {
			t.Fatalf("n=%d: ConnectedWithin(1) gave %d, Connected gave %d", n, len(b), len(a))
		}
		for i := range a {
			if !a[i].Equal(b[i]) {
				t.Fatalf("n=%d: enumeration mismatch at %d", n, i)
			}
		}
	}
}

func TestConnectedWithin2Counts(t *testing.T) {
	// Small-size counts of the relaxed space (regression-pinned from the
	// enumerator itself; the growth factor is ≈13× per node).
	want := map[int]int{1: 1, 2: 9, 3: 99, 4: 1194}
	for n, w := range want {
		if got := len(ConnectedWithin(n, 2)); got != w {
			t.Errorf("relaxed n=%d: %d patterns, want %d", n, got, w)
		}
	}
}

func TestConnectedWithin2Properties(t *testing.T) {
	for _, c := range ConnectedWithin(4, 2) {
		if !VisibilityConnected(c, 2) {
			t.Fatalf("relaxed enumeration yielded vis-disconnected %v", c)
		}
		if c.Len() != 4 {
			t.Fatalf("wrong size: %v", c)
		}
	}
}

func TestConnectedWithin2StrictlyLarger(t *testing.T) {
	// The relaxed space strictly contains the adjacency-connected space.
	adj := map[string]bool{}
	for _, c := range Connected(3) {
		adj[c.Key()] = true
	}
	relaxed := ConnectedWithin(3, 2)
	super := 0
	for _, c := range relaxed {
		if !adj[c.Key()] {
			super++
			if c.Connected() {
				t.Fatalf("non-adjacency pattern reported connected: %v", c)
			}
		}
	}
	if super != len(relaxed)-len(adj) {
		t.Fatalf("containment broken: %d extra, want %d", super, len(relaxed)-len(adj))
	}
	if super == 0 {
		t.Fatal("relaxed space not strictly larger")
	}
}

func TestVisibilityConnected(t *testing.T) {
	// Two robots at distance 2: vis-2 connected, adjacency disconnected.
	c := config.New(grid.Origin, grid.Coord{Q: 2, R: 0})
	if c.Connected() {
		t.Fatal("distance-2 pair reported adjacency-connected")
	}
	if !VisibilityConnected(c, 2) {
		t.Fatal("distance-2 pair not vis-2 connected")
	}
	if VisibilityConnected(c, 1) {
		t.Fatal("distance-2 pair vis-1 connected")
	}
	far := config.New(grid.Origin, grid.Coord{Q: 5, R: 0})
	if VisibilityConnected(far, 2) {
		t.Fatal("distance-5 pair vis-2 connected")
	}
}

func TestRandomWithinProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		c := RandomWithin(7, 2, rng)
		if c.Len() != 7 {
			t.Fatalf("sample has %d robots", c.Len())
		}
		if !VisibilityConnected(c, 2) {
			t.Fatalf("sample not vis-2 connected: %v", c)
		}
	}
}

func TestRandomWithinDeterministicPerSeed(t *testing.T) {
	a := RandomWithin(7, 2, rand.New(rand.NewSource(5)))
	b := RandomWithin(7, 2, rand.New(rand.NewSource(5)))
	if !a.Equal(b) {
		t.Fatal("same seed produced different samples")
	}
}

// TestEachWithinMatchesConnectedWithin checks that the streaming
// enumeration yields exactly the sorted pattern set ConnectedWithin
// returns — same count, same patterns, each normalized, no duplicates
// — that the counting pass agrees, and that early stop works.
func TestEachWithinMatchesConnectedWithin(t *testing.T) {
	for _, tc := range []struct{ n, r int }{{3, 2}, {4, 2}, {5, 2}, {4, 3}} {
		want := map[string]bool{}
		for _, c := range ConnectedWithin(tc.n, tc.r) {
			want[c.Key()] = true
		}
		seen := map[string]bool{}
		count := EachWithin(tc.n, tc.r, func(c config.Config) bool {
			k := c.Key()
			if seen[k] {
				t.Fatalf("n=%d r=%d: duplicate pattern %s", tc.n, tc.r, k)
			}
			if !want[k] {
				t.Fatalf("n=%d r=%d: unexpected pattern %s", tc.n, tc.r, k)
			}
			if !c.Equal(c.Normalize()) {
				t.Fatalf("n=%d r=%d: non-normalized pattern %s", tc.n, tc.r, k)
			}
			seen[k] = true
			return true
		})
		if count != len(want) || len(seen) != len(want) {
			t.Fatalf("n=%d r=%d: streamed %d patterns (visited %d), want %d",
				tc.n, tc.r, count, len(seen), len(want))
		}
		if got := EachWithin(tc.n, tc.r, nil); got != len(want) {
			t.Fatalf("n=%d r=%d: counting pass gave %d, want %d", tc.n, tc.r, got, len(want))
		}
	}
	stopped := 0
	EachWithin(5, 2, func(config.Config) bool {
		stopped++
		return stopped < 10
	})
	if stopped != 10 {
		t.Fatalf("early stop visited %d patterns, want 10", stopped)
	}
}

func BenchmarkEnumerateRelaxed5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(ConnectedWithin(5, 2)) != 15198 {
			b.Fatal("bad count")
		}
	}
}
