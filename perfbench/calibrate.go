package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"unsafe"
)

// The gated CPU figures are scaled by a calibration run taken next to
// the measured work, so that a change of the host's speed cancels out.
// The calibration is the sweep's concurrency skeleton with a fixed
// synthetic case body: a dispatcher hands cases through a bounded
// window to one worker per P, each case makes random lookups in a
// table larger than the caches, and one collector delivers results in
// order. Its CPU time therefore moves with the same host effects as the
// sweeps' and the daemon's: shared-cache and memory contention, and the
// Go scheduler's idle spinning, which is larger on an idle host than
// on a busy one. Plain arithmetic or memory loops do not track the
// latter.
//
// Each calibration runs in a fresh process. A child started with
// vfork, as os/exec does, reports the parent's peak RSS at the fork as
// part of its own, so a table built in this process would show in the
// peak RSS of every sweep and daemon started after it.
const (
	calCases = 30000
	// calRefS is the calibration's CPU time on the reference host; a
	// scaled figure is what the raw one would read there. It is the
	// calibration's median on the 2-vCPU host the bounds were fitted on.
	calRefS     = 0.6
	calTableLen = 1 << 20
)

const childCal = "child-cal"

type calibrator struct {
	samples []float64 // CPU seconds of each calibration run
	err     error     // the first failed run
}

// sample runs the calibration once in a fresh process and records its
// CPU time.
func (c *calibrator) sample() {
	exe, err := os.Executable()
	if err == nil {
		var out []byte
		if out, err = exec.Command(exe, childCal).Output(); err == nil {
			var v float64
			if v, err = strconv.ParseFloat(strings.TrimSpace(string(out)), 64); err == nil {
				c.samples = append(c.samples, v)
				return
			}
		}
	}
	if c.err == nil {
		c.err = fmt.Errorf("calibration: %v", err)
	}
}

// runCalChild is one calibration run: build the table, then print the
// CPU seconds of the calibration over it.
func runCalChild() int {
	t := make(map[[2]uint64]uint32, calTableLen)
	for i := uint64(0); i < calTableLen; i++ {
		t[[2]uint64{i, 3}] = uint32(i)
	}
	fmt.Println(calibrationCPU(calCases, t))
	return 0
}

// between is the factor that turns a CPU time measured between samples
// i and j into reference-host CPU time: calRefS over their mean. The
// host's speed drifts within a run too, so each figure is scaled by the
// calibrations taken right before and after it.
func (c *calibrator) between(i, j int) float64 {
	return ratio(calRefS, (c.samples[i]+c.samples[j])/2)
}

type calJob struct {
	i    int
	seed uint64
}

type calResult struct {
	i int
	v uint64
}

// calibrationCPU runs the calibration over the given number of cases
// and returns the CPU seconds this process spent on it.
func calibrationCPU(cases int, table map[[2]uint64]uint32) float64 {
	c0 := selfCPU()
	workers := runtime.GOMAXPROCS(0)
	jobs := make(chan calJob, workers)
	results := make(chan calResult, workers)
	tokens := make(chan struct{}, 4*workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := map[[2]uint64]uint32{}
			for j := range jobs {
				x := j.seed
				var v uint64
				for k := 0; k < 24; k++ {
					x = x*6364136223846793005 + 1442695040888963407
					v += uint64(table[[2]uint64{x >> 44, 3}])
					if k%6 == 0 {
						local[[2]uint64{x >> 40, uint64(j.i)}]++
					}
				}
				if len(local) > 4096 {
					clear(local)
				}
				results <- calResult{j.i, v}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	go func() {
		defer close(jobs)
		for i := 0; i < cases; i++ {
			tokens <- struct{}{}
			jobs <- calJob{i, uint64(i)*2654435761 + 1}
		}
	}()
	pending := map[int]calResult{}
	next := 0
	var sum uint64
	for r := range results {
		pending[r.i] = r
		for {
			p, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			<-tokens
			sum += p.v
		}
	}
	calSink = sum
	return selfCPU() - c0
}

// calSink keeps the calibration's result alive.
var calSink uint64

// selfCPU is the CPU time of this process alone, in seconds.
func selfCPU() float64 { return clockCPU(2) } // CLOCK_PROCESS_CPUTIME_ID

// threadCPU is the CPU time of the calling OS thread, in seconds.
func threadCPU() float64 { return clockCPU(3) } // CLOCK_THREAD_CPUTIME_ID

// clockCPU reads a CPU-time clock. Unlike getrusage, which brings a
// running thread's CPU time up to date only at scheduler ticks, these
// clocks include the time since the last tick, so a few milliseconds
// of work read as what they took rather than as 0 or a whole tick.
func clockCPU(clock uintptr) float64 {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return float64(ts.Nano()) / 1e9
}
