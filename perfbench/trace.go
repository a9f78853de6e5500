package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"spanjoin"
)

// tracer keeps the traced run's spans in memory: one per timed call into
// a layer, made from the benchmark's side of the API, plus the stages the
// program's own QueryTrace recorded beside them. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []spanRecord
	nextOp int64
}

type spanRecord struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list; -1 for an operation's root
	Op     int64  `json:"op"`
	// Source is "bench" for a call timed from outside, "program" for a
	// stage the program's QueryTrace recorded.
	Source string `json:"source"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

type spanKey struct{}

// parentSpan is the enclosing span a context carries.
type parentSpan struct {
	t   *tracer
	idx int
	op  int64
}

// start opens a span named name under the context's span, or as the root
// of a new operation, and returns the context for its children and the
// function that closes it.
func (t *tracer) start(ctx context.Context, name string) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	p, ok := ctx.Value(spanKey{}).(parentSpan)
	t.mu.Lock()
	if !ok {
		p = parentSpan{idx: -1, op: t.nextOp}
		t.nextOp++
	}
	idx := len(t.spans)
	t.spans = append(t.spans, spanRecord{Name: name, Start: int64(time.Since(t.t0)), Parent: p.idx, Op: p.op, Source: "bench"})
	t.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, parentSpan{t: t, idx: idx, op: p.op}), func() {
		end := int64(time.Since(t.t0))
		t.mu.Lock()
		t.spans[idx].End = end
		t.mu.Unlock()
	}
}

// child opens a span under the context's span; without one (an untraced
// operation) it records nothing.
func child(ctx context.Context, name string) (context.Context, func()) {
	p, ok := ctx.Value(spanKey{}).(parentSpan)
	if !ok {
		return ctx, func() {}
	}
	return p.t.start(ctx, name)
}

// withStages arms the program's own stage trace on ctx (when tracing)
// and returns the function that copies its stages under ctx's span.
func (t *tracer) withStages(ctx context.Context) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	began := time.Now()
	ctx, qt := spanjoin.WithTrace(ctx)
	return ctx, func() { t.stages(ctx, began, qt.Spans()) }
}

// stages records program-side stage spans, which began offset from
// began, under ctx's span.
func (t *tracer) stages(ctx context.Context, began time.Time, ss []spanjoin.StageSpan) {
	if t == nil || len(ss) == 0 {
		return
	}
	p, _ := ctx.Value(spanKey{}).(parentSpan)
	base := int64(began.Sub(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range ss {
		start := base + int64(s.Start)
		t.spans = append(t.spans, spanRecord{Name: "stage." + string(s.Stage), Start: start, End: start + int64(s.Dur), Parent: p.idx, Op: p.op, Source: "program"})
	}
}

// durations returns the durations in milliseconds of every span named
// name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns, per span name, the call count and the total self
// time: each span's duration minus the part of it its children cover.
// Program stages are accumulated totals that may overlap across workers,
// so only bench spans are subtracted from their parents.
func (t *tracer) selfTimes() map[string]map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.Source == "bench" {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]map[string]float64{}
	for i, s := range t.spans {
		self := (s.End - s.Start) - covered(s.Start, s.End, children[i])
		m := out[s.Name]
		if m == nil {
			m = map[string]float64{}
			out[s.Name] = m
		}
		m["calls"]++
		m["self_ms"] += float64(self) / 1e6
		m["total_ms"] += float64(s.End-s.Start) / 1e6
	}
	return out
}

// covered is the length of [lo, hi) that the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// write saves every span and the self-time summary as JSON.
func (t *tracer) write(path string) error {
	summary := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"spans": t.spans, "self": summary})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
