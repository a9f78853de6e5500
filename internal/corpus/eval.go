package corpus

import (
	"context"
	"runtime"
	"time"

	"spanjoin/internal/enum"
	"spanjoin/internal/obs"
	"spanjoin/internal/prefilter"
	"spanjoin/internal/ranked"
	"spanjoin/internal/resilience"
	"spanjoin/internal/span"
)

// Result is one streamed match: the document it was extracted from and the
// span tuple, aligned with the Results' variable list.
type Result struct {
	Doc   DocID
	Tuple span.Tuple
}

// EvalOptions tune a corpus evaluation.
type EvalOptions struct {
	// Workers is the evaluation pool size; ≤ 0 selects GOMAXPROCS.
	Workers int
	// Buffer is the capacity of the result channel (the producer/consumer
	// decoupling window); ≤ 0 selects 256.
	Buffer int
	// Required is the query's literal requirement: documents that fail it
	// are skipped before any per-document work. When the store's skip
	// index is enabled, the requirement is additionally intersected
	// against the n-gram postings so non-candidates are never visited at
	// all — not even for a substring scan.
	Required prefilter.Requirement

	// Deadline, when non-zero, bounds the whole evaluation: the worker
	// pool runs under a context derived with this deadline, covering the
	// admission-queue wait, every graph build (aborted mid-sweep via the
	// enumerator's amortized interrupt), and every emit. An exceeded
	// deadline surfaces as context.DeadlineExceeded on Results.Err, with
	// the results produced so far already delivered.
	Deadline time.Time
	// Limit, when > 0, caps the number of results the stream delivers:
	// exactly Limit tuples are reserved across the worker pool, workers
	// stop as soon as the reservation is exhausted, and the stream ends
	// with a nil Err — a satisfied limit is normal exhaustion, not a
	// failure.
	Limit uint64
	// Budget, when > 0, caps the evaluation's work, measured in abstract
	// units: one per document byte scanned (charged when the document is
	// admitted to a worker, before its graph build) plus one per emitted
	// result. When the budget runs out the query stops with
	// resilience.ErrBudgetExceeded on Results.Err; results already
	// streamed are valid partial output. Checks are amortized — per
	// document at the worker loop and every few thousand positions inside
	// a build — so an unhit budget costs the hot path nothing.
	Budget uint64
}

func (o EvalOptions) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

func (o EvalOptions) buffer() int {
	if o.Buffer <= 0 {
		return 256
	}
	return o.Buffer
}

// evalCtx derives the pool context: the caller's context, tightened by the
// per-query deadline when one is set.
func (o EvalOptions) evalCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if !o.Deadline.IsZero() {
		return context.WithDeadline(ctx, o.Deadline)
	}
	return context.WithCancel(ctx)
}

// DocEval evaluates one document, calling emit for every result tuple.
// emit reports false when the evaluation is cancelled; the evaluator must
// stop promptly (returning nil — cancellation is not an error).
type DocEval func(doc string, emit func(span.Tuple) bool) error

// NewDocEval constructs one worker's evaluator. stop is the query's
// liveness probe — true once the query's context is done or its work
// budget is spent; constructors that build documents incrementally may
// install it as a build interrupt, and others may ignore it (their emit
// path already observes cancellation per tuple).
type NewDocEval func(stop func() bool) DocEval

// Evaluator is what a corpus operation runs on each document; exactly one
// field is set. A plan-backed evaluator gives every worker its own
// enumerator over the shared compiled plan and cycles documents through
// Reset, so the per-document cost is one graph rebuild into preallocated
// arenas: streams walk Next, counts read Rank().Count(). A per-document
// evaluator serves queries that cannot share a plan (per-document query
// plans, string-equality selections): Doc is called once per worker and
// its DocEval drained per document, to stream or to count.
type Evaluator struct {
	Plan *enum.Plan
	Doc  NewDocEval
}

// docEval builds one worker's streaming evaluator. The query's stop probe
// doubles as the enumerator's amortized build interrupt, so a deadline or
// budget that dies mid-build on a huge document abandons the sweep
// instead of finishing it.
func (ev Evaluator) docEval(stop func() bool) DocEval {
	if ev.Plan == nil {
		return ev.Doc(stop)
	}
	e := ev.Plan.NewEnumerator()
	e.SetInterrupt(stop)
	return func(doc string, emit func(span.Tuple) bool) error {
		e.Reset(doc)
		for {
			t, ok := e.Next()
			if !ok || !emit(t) {
				return nil
			}
		}
	}
}

// docCounter builds one worker's counter: the ranked path-count DP for a
// plan (one graph build, cost independent of the document's result
// count), a drain of the DocEval otherwise.
func (ev Evaluator) docCounter(stop func() bool) func(doc string) (ranked.Count, error) {
	if ev.Plan == nil {
		eval := ev.Doc(stop)
		return func(doc string) (ranked.Count, error) {
			var n uint64
			err := eval(doc, func(span.Tuple) bool { n++; return true })
			return ranked.CountOf(n), err
		}
	}
	e := ev.Plan.NewEnumerator()
	// A deadline that fires mid-build abandons the sweep (the count comes
	// up 0, but the whole count errors out anyway).
	e.SetInterrupt(stop)
	return func(doc string) (ranked.Count, error) {
		e.Reset(doc)
		return e.Rank().Count(), nil
	}
}

// Results streams (doc, tuple) results of a corpus evaluation. Consume
// with Next until ok is false, then check Err; Close aborts early and
// releases the worker pool. Results is safe for use by one consumer
// goroutine; Close may additionally be called from any number of
// goroutines, at any time, concurrently with Next. The progress counters
// (Scanned, Skipped, SkippedIndex, Work, Delivered) and Err come from the
// underlying sweep.
type Results struct {
	sweep
	ch chan Result
}

// Next returns the next result; ok is false once the stream is exhausted
// (all shards drained, an error occurred, or the context was cancelled) —
// distinguish the cases with Err.
func (r *Results) Next() (Result, bool) {
	res, ok := <-r.ch
	return res, ok
}

// Close aborts the evaluation and blocks until the worker pool has shut
// down. It is idempotent and safe to call from any number of goroutines
// concurrently — with each other, with Next, and after exhaustion.
func (r *Results) Close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.cancel()
	// Drain until the closer goroutine closes the channel. Concurrent
	// Closes (and a concurrent Next) all just race for leftover buffered
	// results; every path unblocks once the pool is gone.
	for range r.ch {
	}
}

// Eval evaluates ev over every document in the store (snapshotted at call
// time) and streams the results through a bounded channel in no
// guaranteed global order; per document they arrive in the engine's
// deterministic radix order. Every emitted tuple is tagged with its
// stable DocID, and the emit path selects on the pool context so
// cancellation aborts mid-enumeration. It returns
// resilience.ErrOverloaded (without starting anything) when the store's
// admission gate sheds the query.
//
// A closer goroutine owns shutdown: once the pool has drained it records
// the enumerate stage (with the delivered-result count) into a trace
// carried on ctx and the store's metrics, releases the admission slot and
// closes the channel.
//
//spanjoin:stage enumerate
func (s *Store) Eval(ctx context.Context, ev Evaluator, opt EvalOptions) (res *Results, err error) {
	defer resilience.RecoverTo(&err)
	res = &Results{ch: make(chan Result, opt.buffer())}
	if err := s.start(ctx, &res.sweep, opt, resilience.FailWorkerDoc); err != nil {
		return nil, err
	}
	done := res.cctx.Done()
	poolStart := time.Now()
	wait, err := res.run(opt.workers(), func(stop func() bool) docAction {
		eval := ev.docEval(stop)
		return func(id DocID, doc string) error {
			return eval(doc, func(t span.Tuple) bool {
				if res.limit > 0 && res.reserved.Add(1) > res.limit {
					// Over-reserved: this tuple is beyond the limit. Stop
					// this producer; the worker loop stops the rest. No
					// error — a met limit is exhaustion.
					return false
				}
				select {
				case res.ch <- Result{Doc: id, Tuple: t}:
					res.delivered.Add(1)
					res.work.Add(1)
					return true
				case <-done:
					return false
				}
			})
		}
	})
	if err != nil {
		return nil, err
	}
	go func() {
		// The closer must close the channel and release the gate on every
		// path, including a panic in wg.Wait bookkeeping.
		defer func() {
			if p := recover(); p != nil {
				res.setErr(resilience.NewPanicError(resilience.NoDoc, p))
			}
			// Record the pool's lifetime and final counters before the
			// channel closes — the consumer reads the trace only after
			// Next returns false, so the close publishes these writes.
			d := time.Since(poolStart)
			s.met.evalDur.Observe(d)
			obs.FromContext(ctx).ObserveItems(obs.StageEnumerate, d, int64(res.delivered.Load()))
			s.met.docsScanned.Add(res.scanned.Load())
			s.met.docsSkipped.Add(res.skipped.Load())
			s.met.results.Add(res.delivered.Load())
			// Release the derived context's registration on ctx so streams
			// drained without Close don't leak it (Close's own cancel stays
			// idempotent), and give the admission slot back only now —
			// admission bounds live pools, not just query starts.
			res.cancel()
			res.release()
			close(res.ch)
		}()
		wait()
		res.settle()
	}()
	return res, nil
}
