package corpus

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"spanjoin/internal/obs"
	"spanjoin/internal/prefilter"
	"spanjoin/internal/resilience"
)

// sweep is one corpus operation over a snapshot. Streams, counts and
// page counts are the same fan-out — admission, the snapshot plan, shards
// dealt to a worker pool, the prefilter and the limit and budget meters
// applied per document — and differ only in the per-document action each
// worker runs (see Store.Eval and Store.Count).
type sweep struct {
	s      *Store
	shards []evalShard
	busy   int // shards with work
	req    prefilter.Requirement
	fp     string // failpoint fired before each document's action

	// ctx is the caller's context; cctx the pool context derived from it
	// (tightened by the per-query deadline), cancelled by the first
	// failure. release gives the admission slot back; it is idempotent.
	ctx, cctx context.Context
	cancel    context.CancelFunc
	release   func()

	// limit/budget copy the options; reserved is the limit reservation
	// counter (reservations, not deliveries — see Store.Eval's emit),
	// work the budget meter, delivered the tuples actually handed out.
	limit, budget uint64
	reserved      atomic.Uint64
	work          atomic.Uint64
	delivered     atomic.Uint64

	// scanned counts documents the action actually ran on; skipped counts
	// documents excluded by the prefilter (skip-index candidate selection
	// or the literal scan). They sum to the snapshot size once the sweep
	// completes without cancellation. skippedIndex is the subset of
	// skipped that the index excluded without even a substring scan.
	scanned      atomic.Uint64
	skipped      atomic.Uint64
	skippedIndex atomic.Uint64

	mu     sync.Mutex
	err    error
	closed bool
}

// docAction is one worker's per-document step; an error fails the whole
// operation.
type docAction func(id DocID, doc string) error

// Scanned reports how many documents the evaluator has run on so far.
func (sw *sweep) Scanned() uint64 { return sw.scanned.Load() }

// Skipped reports how many documents the prefilter has excluded so far
// (index non-candidates plus documents failing the literal scan).
func (sw *sweep) Skipped() uint64 { return sw.skipped.Load() }

// SkippedIndex reports the subset of Skipped the skip index excluded
// outright — documents never visited, not even for a substring scan.
func (sw *sweep) SkippedIndex() uint64 { return sw.skippedIndex.Load() }

// Work reports the work units spent so far: one per byte of every scanned
// document plus one per delivered result. It is the meter EvalOptions'
// Budget is charged against.
func (sw *sweep) Work() uint64 { return sw.work.Load() }

// Delivered reports how many results the stream has handed to its channel
// so far; bounded by EvalOptions' Limit when one is set.
func (sw *sweep) Delivered() uint64 { return sw.delivered.Load() }

// Err reports the first evaluation error, or the context's error when the
// evaluation was cut short by cancellation. It is meaningful after Next
// has returned ok=false. A stream abandoned via Close reports nil, and so
// does one that ended by reaching its result limit; a panic in any pool
// goroutine surfaces as *resilience.PanicError, an exhausted budget as
// resilience.ErrBudgetExceeded, and an exceeded deadline as
// context.DeadlineExceeded.
func (sw *sweep) Err() error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.closed && errors.Is(sw.err, context.Canceled) && !errors.Is(sw.err, context.DeadlineExceeded) {
		// The consumer abandoned the stream: its Close races the closer
		// goroutine recording the pool's (or the caller context's)
		// cancellation, so whether err holds context.Canceled here is a
		// scheduling accident. Close means the cancellation was asked for —
		// report the stable answer, not the race's. Real failures (panic,
		// budget, deadline) set before Close still surface.
		return nil
	}
	return sw.err
}

func (sw *sweep) setErr(err error) {
	sw.mu.Lock()
	if sw.err == nil && !sw.closed {
		sw.err = err
	}
	sw.mu.Unlock()
}

// fail records err (the first failure wins) and cancels the pool.
func (sw *sweep) fail(err error) {
	sw.setErr(err)
	sw.cancel()
}

// overBudget reports whether the work meter has exhausted the budget.
func (sw *sweep) overBudget() bool {
	return sw.budget > 0 && sw.work.Load() >= sw.budget
}

// limitExhausted reports whether every result slot under the limit has
// been reserved — workers stop starting new documents once it is.
func (sw *sweep) limitExhausted() bool {
	return sw.limit > 0 && sw.reserved.Load() >= sw.limit
}

// start plans the snapshot and admits the operation: the pool context
// carries the per-query deadline, and the store's admission gate is
// acquired before anything spawns (a shed returns
// resilience.ErrOverloaded, or the context's error when a queued query's
// deadline fires). A trace carried on ctx receives the admission wait.
// fp names the failpoint fired before each document's action.
//
//spanjoin:stage admission_wait
func (s *Store) start(ctx context.Context, sw *sweep, opt EvalOptions, fp string) error {
	sw.s, sw.ctx, sw.req, sw.fp = s, ctx, opt.Required, fp
	sw.limit, sw.budget = opt.Limit, opt.Budget
	sw.shards = s.planTraced(ctx, opt.Required)
	for i := range sw.shards {
		es := &sw.shards[i]
		if es.constrained {
			sw.skippedIndex.Add(uint64(len(es.docs) - len(es.cand)))
		}
		if es.work() > 0 {
			sw.busy++
		}
	}
	sw.skipped.Add(sw.skippedIndex.Load())
	sw.cctx, sw.cancel = opt.evalCtx(ctx)
	sw.release = func() {}
	if g := s.gate; g != nil {
		t0 := time.Now()
		err := g.Acquire(sw.cctx, 1)
		obs.FromContext(ctx).Observe(obs.StageAdmission, time.Since(t0))
		if err != nil {
			sw.cancel()
			return err
		}
		var once sync.Once
		sw.release = func() { once.Do(func() { g.Release(1) }) }
	}
	return nil
}

// run starts the worker pool and returns a wait that blocks until every
// worker has returned. newAction is called once per worker, all before
// any goroutine starts (constructors may read shared state a running
// worker would already be mutating); a constructor panic cancels the
// sweep, releases its admission slot and fails the call. The pool is
// bounded by the shards with work — the dealer never hands out empty
// ones — and a sweep with none starts nothing.
//
// Shards planned with skip-index candidates visit only those positions;
// documents failing the literal requirement are counted skipped and never
// reach the action. Every worker goroutine recovers a panic into
// *resilience.PanicError naming the document under evaluation, and the
// loop meters the limit and budget before each document.
func (sw *sweep) run(workers int, newAction func(stop func() bool) docAction) (wait func(), err error) {
	var wg sync.WaitGroup
	if sw.busy == 0 {
		return wg.Wait, nil
	}
	workers = max(1, min(workers, sw.busy))
	// stop is the query liveness probe workers and builds poll: dead
	// context (cancelled, deadline fired) or spent budget.
	stop := func() bool { return sw.cctx.Err() != nil || sw.overBudget() }
	acts := make([]docAction, workers)
	if err := func() (err error) {
		defer resilience.RecoverTo(&err)
		for w := range acts {
			acts[w] = newAction(stop)
		}
		return nil
	}(); err != nil {
		sw.cancel()
		sw.release()
		return nil, err
	}

	shardCh := dealShards(sw.cctx, sw.shards, sw.fail)
	for _, act := range acts {
		wg.Add(1)
		go func() {
			// cur tracks the document under evaluation so a recovered
			// panic can name it; NoDoc between documents.
			cur := resilience.NoDoc
			defer func() {
				if p := recover(); p != nil {
					sw.fail(resilience.NewPanicError(cur, p))
				}
				wg.Done()
			}()
			for si := range shardCh {
				es := &sw.shards[si]
				for k, n := 0, es.work(); k < n; k++ {
					if sw.cctx.Err() != nil || sw.limitExhausted() {
						// With every result slot reserved the query is
						// done: reserved sends complete, nothing new starts.
						return
					}
					if sw.overBudget() {
						sw.fail(resilience.ErrBudgetExceeded)
						return
					}
					pos := k
					if es.constrained {
						pos = int(es.cand[k])
					}
					doc := es.docs[pos]
					if !sw.req.IsEmpty() && !sw.req.Match(doc) {
						// Candidate selection over-approximates (n-gram
						// false positives) or the index is off: the literal
						// scan is the exact filter.
						sw.skipped.Add(1)
						continue
					}
					sw.scanned.Add(1)
					// Charge the document's scan cost up front, so a build
					// that would blow the budget trips the stop probe
					// mid-sweep instead of completing.
					sw.work.Add(uint64(len(doc)))
					id := sw.s.idOf(uint64(si), uint64(pos))
					cur = uint64(id)
					resilience.Inject(sw.fp, doc)
					if err := act(id, doc); err != nil {
						sw.fail(err)
						return
					}
					cur = resilience.NoDoc
				}
			}
		}()
	}
	return wg.Wait, nil
}

// settle runs once every worker has returned and records why a sweep no
// worker failed stopped early: cancellation from the caller's context
// (not from Close), the per-query deadline (which lives on the derived
// context only, so it is checked second), or a budget that ran out
// mid-document — that trips the build interrupt without reaching another
// worker's pre-document check (the single-large-document case), so the
// meter itself is the record that output may be truncated.
func (sw *sweep) settle() {
	if err := sw.ctx.Err(); err != nil {
		sw.setErr(err)
	} else if errors.Is(sw.cctx.Err(), context.DeadlineExceeded) {
		sw.setErr(context.DeadlineExceeded)
	} else if sw.overBudget() {
		sw.setErr(resilience.ErrBudgetExceeded)
	}
}

// dealShards starts the dealer: non-empty shards are handed to workers
// over the returned channel (a worker finishing a small shard immediately
// picks up the next); the dealer selects on ctx so cancellation stops the
// deal. A panic in the dealer is recovered into fail — the channel still
// closes, so workers drain and the pool shuts down cleanly.
func dealShards(ctx context.Context, shards []evalShard, fail func(error)) <-chan int {
	shardCh := make(chan int)
	go func() {
		defer close(shardCh)
		defer func() {
			if p := recover(); p != nil {
				fail(resilience.NewPanicError(resilience.NoDoc, p))
			}
		}()
		for si := range shards {
			if shards[si].work() == 0 {
				continue
			}
			resilience.Inject(resilience.FailDealer, si)
			select {
			case shardCh <- si:
			case <-ctx.Done():
				return
			}
		}
	}()
	return shardCh
}
