package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer keeps spans and counters in memory during a traced run and writes
// them as JSON at the end. Spans are recorded by the benchmark's own code
// around its calls into each layer; nothing inside the program under test
// is instrumented. A nil *tracer records nothing, so untraced code paths
// call the same methods.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	spans    []span
	dropped  int64 // spans over maxSpans, still counted in totals
	totals   map[string]time.Duration
	counts   map[string]int64
	counters map[string]float64
}

// span is one timed call. Parent is the index of the enclosing span (-1 at
// the root) and Req groups the spans of one request or batch.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// maxSpans bounds the kept spans; the per-name totals stay exact past it.
const maxSpans = 200000

func newTracer() *tracer {
	return &tracer{
		t0:       time.Now(),
		totals:   map[string]time.Duration{},
		counts:   map[string]int64{},
		counters: map[string]float64{},
	}
}

// record adds a finished span and returns its index (-1 when not kept).
func (t *tracer) record(name string, start, end time.Time, parent int, req int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.totals[name] += end.Sub(start)
	t.counts[name]++
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)),
		End: int64(end.Sub(t.t0)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// open starts a span whose children are recorded before it closes; close
// fills in its end.
func (t *tracer) open(name string, parent int, req int64) int {
	now := time.Now()
	return t.record(name, now, now, parent, req)
}

func (t *tracer) close(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	end := int64(time.Since(t.t0))
	t.totals[s.Name] += time.Duration(end - s.Start)
	s.End = end
}

func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += v
	t.mu.Unlock()
}

func (t *tracer) total(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totals[name]
}

func (t *tracer) counter(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// selfTimes returns each layer's self time: for every kept span, its
// duration minus the part of it its child spans cover, summed by layer
// (the span name up to the first '.').
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += time.Duration(s.End - s.Start - covered(kids[i], s.Start, s.End))
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	curS, curE := int64(-1), int64(-1)
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e <= s {
			continue
		}
		if s > curE {
			sum += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return sum + curE - curS
}

// write dumps spans, totals and counters as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	totals := map[string]float64{}
	for k, v := range t.totals {
		totals[k] = v.Seconds()
	}
	data, err := json.Marshal(map[string]any{
		"spans":         t.spans,
		"dropped_spans": t.dropped,
		"totals_s":      totals,
		"calls":         t.counts,
		"counters":      t.counters,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
