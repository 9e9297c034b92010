package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
)

// host is the shape of the machine a result was measured on. Results
// compare only between equal shapes.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
}

func (h host) String() string {
	return fmt.Sprintf("%d/%d procs, %s, %s", h.GOMAXPROCS, h.NumCPU, h.CPU, h.Go)
}

func hostShape() host {
	return host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or reports
// the architecture where that file is absent.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}
