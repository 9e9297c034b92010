package config

import (
	"fmt"

	"repro/internal/grid"
)

// This file is the inverse of the compact pattern key: the exact
// decoder that rebuilds the normalized pattern from a Key128 value. It
// exists for the enumeration engine (internal/enumerate), whose
// frontier generations are key-only sets — a configuration is
// materialized from its key only at visit time, so the decoder is the
// engine's only path from key space back to coordinate space. It is a
// strict round-trip inverse: FromKey128 succeeds exactly on the image
// of Key128Nodes, and malformed keys (field out of range, nodes out of
// order) are rejected rather than decoded into a different pattern.

// MaxKeyNodes is the largest node count the exact Key128 encoding
// covers. Every connected pattern through this size is exactly
// encodable (spread at most n − 1 ≤ 13 < 15), which is what lets the
// enumeration engine run key-native through n = 14.
const MaxKeyNodes = 14

// FromKey128 decodes an exact Key128 value back into its normalized
// configuration: FromKey128(Key128Nodes(c.nodes)) round-trips to
// c.Normalize() for every exactly-encodable pattern. Values outside the
// image of Key128Nodes return an error.
func FromKey128(key Key128) (Config, error) {
	nodes, err := AppendKey128Nodes(nil, key)
	if err != nil {
		return Config{}, err
	}
	return Config{nodes: nodes}, nil
}

// AppendKey128Nodes appends the decoded node list of an exact Key128
// value to dst in sorted order and returns the extended slice — the
// allocation-free counterpart of FromKey128 for hot paths that reuse a
// scratch buffer (the enumeration growth loop decodes every parent of
// every generation through it). The decoded list is the normalized
// pattern: anchor at the origin, ascending by Q then R.
func AppendKey128Nodes(dst []grid.Coord, key Key128) ([]grid.Coord, error) {
	if key == (Key128{}) {
		return dst, nil // Key128Nodes(nil) == zero key: the empty pattern
	}
	// Recover n: the leading length field occupies disjoint, increasing
	// value ranges for different n (an n-node key lies in
	// [n<<9(n−1), (n+1)<<9(n−1))), so exactly one n ≤ MaxKeyNodes
	// leaves the bare value n after stripping its 9-bit delta fields.
	n := 0
	for m := 1; m <= MaxKeyNodes; m++ {
		if shr9n(key, m-1) == (Key128{Lo: uint64(m)}) {
			n = m
			break
		}
	}
	if n == 0 {
		return dst, fmt.Errorf("config: not an exact pattern key: %#x:%#x", key.Hi, key.Lo)
	}
	base := len(dst)
	dst = append(dst, make([]grid.Coord, n)...)
	dst[base] = grid.Origin
	// Delta fields come off the low end last-node-first; fill backwards.
	for i := n - 1; i >= 1; i-- {
		f := key.Lo & 0x1FF
		key = shr9n(key, 1)
		dq, dr := int(f>>5), int(f&31)-15
		if dr == 16 { // dr+15 == 31 is outside the [-15,15] field range
			return dst[:base], fmt.Errorf("config: malformed pattern key: delta field %#x out of range", f)
		}
		dst[base+i] = grid.Coord{Q: dq, R: dr}
	}
	// Key128Nodes encodes nodes in strictly ascending order, so any
	// other order marks a value outside the encoder's image.
	for i := base + 1; i < base+n; i++ {
		v, w := dst[i-1], dst[i]
		if v.Q > w.Q || (v.Q == w.Q && v.R >= w.R) {
			return dst[:base], fmt.Errorf("config: malformed pattern key: nodes out of order")
		}
	}
	return dst, nil
}

// shr9n shifts a Key128 right by 9·k bits.
func shr9n(key Key128, k int) Key128 {
	for ; k > 0; k-- {
		key.Lo = key.Lo>>9 | key.Hi<<55
		key.Hi >>= 9
	}
	return key
}

// FromSortedNodes wraps an already-sorted, duplicate-free node list as
// a Config without copying — the bulk-materialization fast path of the
// key-native enumeration engine, which decodes whole generations into
// one contiguous backing array instead of one allocation per pattern.
// The caller warrants the Config invariant (ascending by Q then R, no
// duplicates) and must not modify the slice afterwards; use New when
// the input is untrusted.
func FromSortedNodes(nodes []grid.Coord) Config {
	return Config{nodes: nodes}
}
