package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sweep"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
}

// TestLatencyFromDue checks that latency is counted from the due time,
// not the send time, so a request queued behind a slow one carries the
// wait, and that lateness is the send time's distance from due.
func TestLatencyFromDue(t *testing.T) {
	t0 := time.Now()
	ms := func(x float64) time.Time { return t0.Add(time.Duration(x * float64(time.Millisecond))) }
	reqs := []request{{due: ms(0)}, {due: ms(1)}, {due: ms(2)}}
	out := []response{
		{dispatched: ms(0), done: ms(0.5)},
		{dispatched: ms(1.1), done: ms(3)}, // sent on time, waited behind nothing
		{dispatched: ms(2), done: ms(3.2)},
	}
	wantLat := []float64{500, 2000, 1200}
	wantLate := []float64{0, 100, 0}
	lat, late := latencyUS(reqs, out), latenessUS(reqs, out)
	for i := range reqs {
		if !near(lat[i], wantLat[i]) || !near(late[i], wantLate[i]) {
			t.Errorf("request %d: latency %vus lateness %vus, want %vus %vus", i, lat[i], late[i], wantLat[i], wantLate[i])
		}
	}
	if p := quantile(lat, 0.5); !near(p, 1200) {
		t.Errorf("p50 from due = %vus, want 1200us", p)
	}
}

// TestOpenLoopChargesStalls drives a server whose first answer stalls:
// the requests due during the stall must show it in their latency
// from due, while the generator itself stays on schedule.
func TestOpenLoopChargesStalls(t *testing.T) {
	const stall = 60 * time.Millisecond
	first := true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first {
			first = false // one connection: handlers run one at a time
			time.Sleep(stall)
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	start := time.Now().Add(10 * time.Millisecond)
	due := schedule(start, 200, 6) // every 5ms
	reqs := make([]request, len(due))
	for i := range reqs {
		reqs[i] = request{url: srv.URL, due: due[i]}
	}
	out := openLoop([]*http.Client{newClient()}, reqs)
	for i, o := range out {
		if o.err != nil || o.status != http.StatusOK {
			t.Fatalf("request %d: %v %d", i, o.err, o.status)
		}
	}
	lat := latencyUS(reqs, out)
	for i := 1; i < len(lat); i++ {
		// Request i was due i*5ms after the stalled one began.
		if min := float64(stall-time.Duration(i)*5*time.Millisecond) / 1e3; lat[i] < min {
			t.Errorf("request %d: %vus from due, want at least %vus", i, lat[i], min)
		}
	}
	if late := quantile(latenessUS(reqs, out), 1); late > 5000 {
		t.Errorf("generator dispatched %vus late; the stall must not delay dispatch", late)
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []Span{
		{ID: 1, Name: "root", Start: at(0), End: at(10)},
		{ID: 2, Parent: 1, Name: "a", Start: at(1), End: at(3)},
		{ID: 3, Parent: 1, Name: "a", Start: at(2), End: at(5)},  // overlaps 2: counted once
		{ID: 4, Parent: 1, Name: "b", Start: at(9), End: at(12)}, // clipped to the parent
		{ID: 5, Parent: 3, Name: "c", Start: at(4), End: at(5)},
	}
	self := SelfTimes(spans)
	want := map[int]time.Duration{1: 5 * time.Millisecond, 2: 2 * time.Millisecond, 3: 2 * time.Millisecond, 4: 3 * time.Millisecond, 5: time.Millisecond}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
	var tr *Tracer
	if id := tr.Begin("x", 0); id != 0 || tr.Spans() != nil {
		t.Error("a nil tracer must record nothing")
	}
}

// TestRatioBases pins the denominators of the derived dist ratios:
// imbalance is the busiest worker over the mean worker, idle share is
// over the coordinator's wall time, hit rate is over all lookups.
func TestRatioBases(t *testing.T) {
	if ratio(3, 0) != 0 {
		t.Fatal("a ratio over an empty base must read 0")
	}
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	b := &timedBackend{runs: []shardRun{
		{worker: 1, start: at(0), end: at(300)},
		{worker: 2, start: at(0), end: at(100)},
		{worker: 2, start: at(100), end: at(200)},
	}}
	reg := metrics.NewRegistry()
	reg.Counter("dist_fleet_memo_hits_total").Add(30)
	reg.Counter("dist_fleet_memo_misses_total").Add(10)
	// Shards arrive at 100, 200, 300 ms; each absorption takes 10 ms.
	progress := []time.Time{at(110), at(210), at(310)}
	got := map[string]float64{}
	for _, m := range fleetLayers(nil, 0, b, reg, progress, at(0), at(400)) {
		got[m.Name] = m.Value
	}
	want := map[string]float64{
		"dist.worker_imbalance":      300.0 / 250.0,
		"dist.coordinator_idle_frac": 1 - 30.0/400.0,
		"dist.shard_s_p50":           0.1,
		"dist.shard_s_max":           0.3,
		"memo.hit_rate":              0.75,
	}
	for k, w := range want {
		if !near(got[k], w) {
			t.Errorf("%s = %v, want %v", k, got[k], w)
		}
	}
}

// TestCalibrationScale pins the scaling base: the reference CPU over
// the mean of the two samples around the measured work.
func TestCalibrationScale(t *testing.T) {
	c := &calibrator{samples: []float64{9 * calRefS, calRefS, 3 * calRefS}}
	if got := c.between(1, 2); !near(got, 0.5) {
		t.Errorf("scale = %v, want 0.5", got)
	}
	if cpu := calibrationCPU(200, map[[2]uint64]uint32{}); cpu <= 0 {
		t.Errorf("calibration used %v s of CPU", cpu)
	}
}

func TestSloRate(t *testing.T) {
	const limit = 5000
	pass := func(rate, p99 float64) rungResult {
		return rungResult{rate: rate, achieved: rate, p99US: p99, pass: p99 <= limit}
	}
	// Interpolates log p99 between the highest passing rung and the next.
	got := sloRate([]rungResult{pass(1000, 1000), pass(2000, 2500), pass(3000, 10000)}, limit)
	if !near(got, 2500) {
		t.Errorf("slo = %v, want 2500", got)
	}
	// An early hiccup does not hide a higher passing rung.
	got = sloRate([]rungResult{pass(1000, 9000), pass(2000, 5000), pass(3000, 20000)}, limit)
	if !near(got, 2000) {
		t.Errorf("slo = %v, want 2000", got)
	}
	if got := sloRate([]rungResult{pass(1000, 100), pass(2000, 200)}, limit); got != 2000 {
		t.Errorf("all passing: slo = %v, want the top rung", got)
	}
	if got := sloRate([]rungResult{pass(1000, 10000)}, limit); !near(got, 500) {
		t.Errorf("none passing: slo = %v, want the first rung scaled down", got)
	}
}

func TestWindowedP99(t *testing.T) {
	lat := make([]float64, 8000)
	for i := range lat {
		lat[i] = 100
	}
	for i := 0; i < 200; i++ {
		lat[i] = 1e6 // one hiccup, confined to the first window
	}
	if got := windowedP99(lat); got != 100 {
		t.Errorf("windowedP99 = %v, want 100", got)
	}
	if got := windowedP99(lat[:500]); got != 1e6 {
		t.Errorf("a short stream falls back to its plain p99, got %v", got)
	}
}

func TestCheckReportCatchesWrongCounts(t *testing.T) {
	rep, err := sweep.Run(context.Background(), sweep.Spec{N: 7})
	if err != nil {
		t.Fatal(err)
	}
	if probs := checkReport(rep, 7); len(probs) != 0 {
		t.Fatalf("the true n = 7 report failed its check: %v", probs)
	}
	rep.ByStatus[sim.Gathered]--
	rep.ByStatus[sim.Stalled]++
	if probs := checkReport(rep, 7); len(probs) == 0 {
		t.Fatal("a report with moved counts passed its check")
	}
}

// TestSmoke runs the whole pipeline end to end on tiny inputs: every
// workload, untraced and traced, against freshly built programs.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the programs")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+"/", "./cmd/sweepd", "./cmd/verdictd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the programs: %v\n%s", err, out)
	}
	self := exec.Command("go", "build", "-o", filepath.Join(bin, "perfbench"), ".")
	if out, err := self.CombinedOutput(); err != nil {
		t.Fatalf("building perfbench: %v\n%s", err, out)
	}
	for _, w := range []string{"fsync-n10", "fleet-n10", "verdict-mix"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				work := t.TempDir()
				spans := filepath.Join(work, "spans.jsonl")
				cmd := exec.Command(filepath.Join(bin, "perfbench"), "--workload", w, "--seed", "3", "--seconds", "1",
					"--trace", trace, "--smoke", "--bin", bin, "--work", work, "--spans", spans)
				var stdout bytes.Buffer
				cmd.Stdout = &stdout
				cmd.Stderr = os.Stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("%v\n%s", err, stdout.String())
				}
				lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
				var res struct {
					Correct           bool
					Attempted, Failed int64
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
					if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
						t.Errorf("traced run wrote no spans: %v", err)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: %+v, want unit %s", m.Name, got, m.Unit)
					}
					if trace == "0" && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}
