package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer: its name, when it started and
// ended, and the span it was made under (0 for a root).
type Span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	// SelfNS is filled in when the spans are written (see SelfTimes).
	SelfNS int64 `json:"self_ns"`
}

func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer
// records nothing, so untraced runs call the same code paths for free.
type Tracer struct {
	mu    sync.Mutex
	spans []Span
}

// Begin opens a span under parent and returns its id; End closes it.
func (t *Tracer) Begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: time.Now()})
	return id
}

func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Add records an already-measured span and returns its id.
func (t *Tracer) Add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteJSONL writes every span, with its self time, as one JSON line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	spans := t.Spans()
	self := SelfTimes(spans)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		s.SelfNS = int64(self[s.ID])
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// SelfTimes returns, per span id, the span's duration minus the part
// of its interval that its child spans cover. Overlapping children
// (parallel work under one parent) are counted once.
func SelfTimes(spans []Span) map[int]time.Duration {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Duration() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}
