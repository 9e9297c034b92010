// Command enumerate counts the connected configurations of n robots on
// the triangular grid up to translation (fixed polyhexes) and prints the
// table the paper's "3652 patterns" figure comes from. Known reference
// counts (checked with a ✓) extend through n = 12; sizes through n = 14
// enumerate on exact compact keys (config.Key128), and the count fans
// out over GOMAXPROCS workers.
//
// Usage:
//
//	enumerate [-n 7] [-print]
package main

import (
	"flag"
	"fmt"

	"repro/internal/enumerate"
	"repro/internal/viz"
)

func main() {
	n := flag.Int("n", 7, "maximum configuration size")
	print := flag.Bool("print", false, "render every configuration of the largest size")
	flag.Parse()

	fmt.Println("size  connected patterns (up to translation)")
	for k := 1; k <= *n; k++ {
		count := enumerate.Count(k)
		marker := ""
		if k < len(enumerate.KnownCounts) && count == enumerate.KnownCounts[k] {
			marker = "  ✓"
		}
		fmt.Printf("%4d  %d%s\n", k, count, marker)
	}
	if *print {
		for i, c := range enumerate.Connected(*n) {
			fmt.Printf("\n#%d %s\n%s", i, c.Key(), viz.RenderSimple(c))
		}
	}
}
