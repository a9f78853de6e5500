package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"spanjoin"
)

// closedOps is a closed-loop workload: one caller that waits for each
// result before issuing the next operation.
type closedOps interface {
	closer
	// mix lists the warm operations of one cycle, in the order issued.
	mix() []string
	// warm runs one warm operation of the named kind and returns the time
	// from the call to its first result.
	warm(ctx context.Context, kind string) (first time.Duration, err error)
	// cold runs one operation on a query nothing has compiled yet.
	cold(ctx context.Context) error
	// corpus is the corpus the warm operations share a compile cache in.
	corpus() *spanjoin.Corpus
}

// denseRead reports whether an operation kind reads the dense pattern,
// whose first row first_ms_p50 times: its first row arrives after about
// one document, where the other queries' first rows wait for a rare
// match.
func denseRead(kind string) bool { return strings.HasSuffix(kind, "dense") }

// coldEvery makes every tenth operation a cold one.
const coldEvery = 10

// closedLoop runs the measured phase and records its metrics. In the
// traced run whole mix cycles alternate between traced and untraced, so
// obs.trace_overhead compares the same operations.
func closedLoop(cfg config, rep *report, w closedOps, tr *tracer) {
	mix := w.mix()
	var warm, first, cold, traced latencies
	kinds := map[string]*latencies{}
	for _, k := range mix {
		kinds[k] = &latencies{}
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	gate, cache := w.corpus().GateStats(), w.corpus().CacheStats()
	began := time.Now()
	deadline := began.Add(time.Duration(cfg.seconds * float64(time.Second)))
	ops, k, done := 0, 0, 0
	// At least one cold operation runs, however short the phase.
	for ; ops < coldEvery || time.Now().Before(deadline); ops++ {
		if ops%coldEvery == coldEvery-1 {
			ctx, end := tr.start(context.Background(), "op.cold")
			ctx, stages := tr.withStages(ctx)
			t0 := time.Now()
			err := w.cold(ctx)
			d := time.Since(t0)
			stages()
			end()
			if rep.record(err); err == nil {
				cold.add(d)
				done++
			}
			continue
		}
		kind := mix[k%len(mix)]
		on := tr != nil && (k/len(mix))%2 == 0
		ctx := context.Background()
		end, stages := func() {}, func() {}
		if on {
			ctx, end = tr.start(ctx, "op."+kind)
			ctx, stages = tr.withStages(ctx)
		}
		t0 := time.Now()
		f, err := w.warm(ctx, kind)
		d := time.Since(t0)
		stages()
		end()
		k++
		if rep.record(err); err != nil {
			continue
		}
		done++
		if on {
			traced.add(d)
			continue
		}
		warm.add(d)
		if denseRead(kind) {
			first.add(f)
		}
		kinds[kind].add(d)
	}
	memory(rep, mem, ops, w)
	summarize(rep, done, time.Since(began), &warm, &first, &cold, kinds)
	if tr != nil {
		rep.metrics["obs.trace_overhead"] = ratio(traced.p(0.5), warm.p(0.5))
		serviceLayers(rep, tr, w.corpus(), gate, cache, ops)
	}
}

// serviceLayers records the admission gate's and the compile cache's
// share of the measured phase: admission waits come from the program's
// own stage traces.
func serviceLayers(rep *report, tr *tracer, c *spanjoin.Corpus, gate spanjoin.GateStats, cache spanjoin.CacheStats, ops int) {
	g, h := c.GateStats(), c.CacheStats()
	hits, misses := h.Hits-cache.Hits, h.Misses-cache.Misses
	rep.metrics["resilience.admission_wait_ms_p90"] = quantile(tr.durations("stage.admission_wait"), 0.9)
	rep.metrics["resilience.rejected_ratio"] = ratio(float64(g.Rejected-gate.Rejected), float64(ops))
	rep.metrics["corpus.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
}

// runClosed runs either closed-loop workload: timed
// set-ups, the reference, the measured phase, and in the traced run the
// layer probes.
func runClosed[S closedOps](cfg config, build func() (S, error), ref func(S, *report) error, probeIn func(S) probeInputs) (*report, error) {
	rep := newReport()
	rep.info["env"] = environment(cfg)
	sys, err := timedSetups(rep, build)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	if err := reference(rep, func(rep *report) error { return ref(sys, rep) }); err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	closedLoop(cfg, rep, sys, tr)
	if tr != nil {
		if err := probeLayers(cfg, rep, tr, probeIn(sys)); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		if err := finishTrace(cfg, rep, tr); err != nil {
			return nil, err
		}
	}
	return rep.finish(), nil
}

// finishTrace writes the spans out and summarizes them in the record.
func finishTrace(cfg config, rep *report, tr *tracer) error {
	path := filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	rep.info["spans_file"] = path
	rep.info["self_times"] = tr.selfTimes()
	return nil
}
