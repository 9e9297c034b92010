package main

import (
	"io"
	"net/http"
	"syscall"
	"time"
)

// request is one scheduled GET: the connection it goes out on and the
// time it is due.
type request struct {
	conn int
	url  string
	due  time.Time
}

// response is what came back, with the time the generator dispatched
// the request (its lateness is dispatched - due) and the time the
// response body had been read.
type response struct {
	dispatched time.Time
	done       time.Time
	status     int
	body       []byte
	err        error
}

// openLoop is the open-loop generator: it dispatches every request at
// its due time whether or not earlier ones have completed, each onto
// its own connection's sender. A sender issues its connection's
// requests one after another, so a request due while an earlier one on
// the same connection is still in flight waits for it, and that wait
// is part of its latency measured from the due time. reqs must be in
// due order; the result is indexed like reqs.
func openLoop(clients []*http.Client, reqs []request) []response {
	out := make([]response, len(reqs))
	perConn := make([]int, len(clients))
	for _, r := range reqs {
		perConn[r.conn]++
	}
	queues := make([]chan int, len(clients))
	done := make(chan struct{})
	for c := range clients {
		// Sized to every request of the connection, so dispatching
		// never blocks behind a slow sender.
		queues[c] = make(chan int, perConn[c])
		go func(c int) {
			defer func() { done <- struct{}{} }()
			for i := range queues[c] {
				out[i].status, out[i].body, out[i].err = get(clients[c], reqs[i].url)
				out[i].done = time.Now()
			}
		}(c)
	}
	for i, r := range reqs {
		waitUntil(r.due)
		out[i].dispatched = time.Now()
		queues[r.conn] <- i
	}
	for c := range queues {
		close(queues[c])
	}
	for range clients {
		<-done
	}
	return out
}

func get(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// spinWindow is how early the generator wakes before a due time and
// then spins: the runtime's timers can oversleep by a millisecond, a
// plain nanosleep by tens of microseconds. A wider window buys
// precision with CPU the daemon on a small host needs.
const spinWindow = 100 * time.Microsecond

func waitUntil(due time.Time) {
	if d := time.Until(due) - spinWindow; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
	for time.Now().Before(due) {
	}
}

// newClient returns a client that holds one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// schedule returns count due times spaced evenly at rate per second
// from start.
func schedule(start time.Time, rate float64, count int) []time.Time {
	out := make([]time.Time, count)
	for i := range out {
		out[i] = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
	}
	return out
}

// latencyUS returns each request's latency in µs measured from the time
// it was due, not from when it was sent: a stall that delays later
// requests on the connection is charged to them too.
func latencyUS(reqs []request, out []response) []float64 {
	l := make([]float64, len(reqs))
	for i := range reqs {
		l[i] = float64(out[i].done.Sub(reqs[i].due)) / 1e3
	}
	return l
}

// latenessUS returns each response's dispatch lateness in µs.
func latenessUS(reqs []request, out []response) []float64 {
	l := make([]float64, len(reqs))
	for i := range reqs {
		l[i] = float64(out[i].dispatched.Sub(reqs[i].due)) / 1e3
	}
	return l
}
