package vision

import (
	"fmt"
	"math/bits"

	"repro/internal/grid"
)

// PackedView is a View compressed into a fixed-size bitmask. Bit i of the
// mask corresponds to the i-th offset of grid.Origin.Disk(range) (the
// disk order: rings by increasing radius, counter-clockwise within each
// ring, so the origin is bit 0 and smaller ranges are prefixes of larger
// ones). The range-2 neighborhood of the paper has 19 nodes; views at
// ranges beyond MaxPackedRange keep the map-based View as their
// representation — Pack and LookPackedSorted report ok=false and
// callers fall back.
//
// PackedView is comparable. Bit 0, the observer, is set in every valid
// view, so among the views of one range Bits()>>1 is injective and
// dense: it indexes the view→move tables of core.Memo directly. The
// zero value is not a valid view; build one with Pack or
// LookPackedSorted.
type PackedView struct {
	rng  uint8
	bits uint64
}

// MaxPackedRange is the largest visibility range PackedView represents.
// It is the paper's range: Disk(2) has 19 nodes, so with the observer
// always present a range has 2^18 views, few enough for core to
// memoize every decision in a dense table.
const MaxPackedRange = 2

var (
	// packedOffsets[r] is Origin.Disk(r); len(packedOffsets[r]) is the
	// number of mask bits a range-r view uses (1, 7, 19).
	packedOffsets [MaxPackedRange + 1][]grid.Coord
	// packedIndex maps an offset (Q+MaxPackedRange, R+MaxPackedRange) to
	// its bit index in Disk(MaxPackedRange) order, or -1 when the offset
	// is outside the largest disk. Because Disk orders by ring, an offset
	// belongs to a range-r view iff its index is < len(packedOffsets[r]).
	packedIndex [2*MaxPackedRange + 1][2*MaxPackedRange + 1]int8
)

func init() {
	for r := 0; r <= MaxPackedRange; r++ {
		packedOffsets[r] = grid.Origin.Disk(r)
	}
	for i := range packedIndex {
		for j := range packedIndex[i] {
			packedIndex[i][j] = -1
		}
	}
	for i, o := range packedOffsets[MaxPackedRange] {
		packedIndex[o.Q+MaxPackedRange][o.R+MaxPackedRange] = int8(i)
	}
}

// packedBitIndex returns the bit index of the relative offset in a
// range-rng mask, or -1 when the offset lies outside that disk.
func packedBitIndex(rel grid.Coord, rng int) int {
	if rel.Q < -MaxPackedRange || rel.Q > MaxPackedRange ||
		rel.R < -MaxPackedRange || rel.R > MaxPackedRange {
		return -1
	}
	i := int(packedIndex[rel.Q+MaxPackedRange][rel.R+MaxPackedRange])
	if i < 0 || i >= len(packedOffsets[rng]) {
		return -1
	}
	return i
}

// Pack compresses the view into a bitmask. ok is false when the view's
// range exceeds MaxPackedRange; such views stay in map form.
func Pack(v View) (pv PackedView, ok bool) {
	if v.rng > MaxPackedRange {
		return PackedView{}, false
	}
	var b uint64
	for i, o := range packedOffsets[v.rng] {
		if v.occupied[o] {
			b |= 1 << uint(i)
		}
	}
	return PackedView{rng: uint8(v.rng), bits: b}, true
}

// Pack is the method form of the package-level Pack.
func (v View) Pack() (PackedView, bool) { return Pack(v) }

// LookPackedSorted computes the packed view of the robot at pos directly
// from a sorted node set, without building the map-based View — the
// allocation-free Look of the simulator's hot loop. nodes must be sorted
// by Q then R with no duplicates (the order config.Config maintains). It
// panics if pos is not a robot node, mirroring Look; ok is false when
// visRange exceeds MaxPackedRange.
func LookPackedSorted(nodes []grid.Coord, pos grid.Coord, visRange int) (pv PackedView, ok bool) {
	if visRange < 0 {
		panic("vision: negative visibility range")
	}
	if visRange > MaxPackedRange {
		return PackedView{}, false
	}
	var b uint64
	self := false
	for _, v := range nodes {
		i := packedBitIndex(v.Sub(pos), visRange)
		if i < 0 {
			continue
		}
		b |= 1 << uint(i)
		if v == pos {
			self = true
		}
	}
	if !self {
		panic(fmt.Sprintf("vision: no robot at %v", pos))
	}
	return PackedView{rng: uint8(visRange), bits: b}, true
}

// Range returns the visibility range of the view.
func (pv PackedView) Range() int { return int(pv.rng) }

// Bits returns the raw occupancy mask (bit i ⇔ Disk(range)[i] occupied).
func (pv PackedView) Bits() uint64 { return pv.bits }

// Count returns the number of robots in view (including the observer).
func (pv PackedView) Count() int { return bits.OnesCount64(pv.bits) }

// Robot reports whether the node at the given relative offset is a robot
// node; offsets outside the range read as empty, matching View.Robot.
func (pv PackedView) Robot(rel grid.Coord) bool {
	i := packedBitIndex(rel, int(pv.rng))
	return i >= 0 && pv.bits&(1<<uint(i)) != 0
}

// Unpack rebuilds the equivalent map-based View. It allocates; the fast
// paths only call it on memo misses.
func (pv PackedView) Unpack() View {
	occ := make(map[grid.Coord]bool, pv.Count())
	for i, o := range packedOffsets[pv.rng] {
		if pv.bits&(1<<uint(i)) != 0 {
			occ[o] = true
		}
	}
	return View{rng: int(pv.rng), occupied: occ}
}

// String renders the packed view as its unpacked key.
func (pv PackedView) String() string { return pv.Unpack().Key() }
