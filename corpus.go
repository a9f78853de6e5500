package spanjoin

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"spanjoin/internal/core"
	"spanjoin/internal/corpus"
	"spanjoin/internal/enum"
	"spanjoin/internal/obs"
	"spanjoin/internal/prefilter"
	"spanjoin/internal/resilience"
	"spanjoin/internal/span"
)

// DocID identifies a document in a Corpus; IDs are stable for the life of
// the corpus.
type DocID = corpus.DocID

// Corpus is a sharded, append-only collection of documents with a shared
// compiled-query cache — the engine's multi-document layer. Add documents
// from any number of goroutines; evaluate patterns, spanners and queries
// over the whole corpus with Eval and friends, which fan the shards out to
// a worker pool (each worker owning one Reset-able enumerator over the
// shared compiled automaton) and stream (DocID, Match) results through a
// bounded channel with context cancellation.
//
// Repeated Eval calls with the same pattern hit the LRU compiled-query
// cache; concurrent identical misses compile once (singleflight). A Corpus
// is safe for concurrent use.
type Corpus struct {
	store   *corpus.Store
	cache   *corpus.Cache
	workers int
	buffer  int

	// reg is the corpus's metrics registry (see observability.go); always
	// non-nil, shared by every layer below (store, gate, WAL) and exposed
	// by Metrics for scraping. planBuild times the compilations that
	// actually ran (cache misses whose Spanner had no memoized plan yet).
	reg       *obs.Registry
	planBuild *obs.Histogram
}

// corpusConfig collects the options of NewCorpus and Open.
type corpusConfig struct {
	shards        int
	cacheCap      int
	workers       int
	buffer        int
	indexed       bool
	maxConcurrent int
	maxQueue      int

	// Durable-corpus knobs (Open only; see durable.go).
	syncPolicy        SyncPolicy
	syncInterval      time.Duration
	snapshotThreshold int64
}

// CorpusOption configures a Corpus at creation.
type CorpusOption func(*corpusConfig)

// WithShards sets the shard count (default GOMAXPROCS). More shards mean
// less write contention and finer-grained evaluation work units.
func WithShards(n int) CorpusOption {
	return func(c *corpusConfig) { c.shards = n }
}

// WithCacheCapacity bounds the compiled-query LRU cache (default 128
// compiled patterns).
func WithCacheCapacity(n int) CorpusOption {
	return func(c *corpusConfig) { c.cacheCap = n }
}

// WithWorkers sets the evaluation pool size (default GOMAXPROCS).
func WithWorkers(n int) CorpusOption {
	return func(c *corpusConfig) { c.workers = n }
}

// WithResultBuffer sets the result channel capacity of corpus evaluations
// (default 256) — the window by which enumeration may run ahead of the
// consumer.
func WithResultBuffer(n int) CorpusOption {
	return func(c *corpusConfig) { c.buffer = n }
}

// WithIndex enables the per-shard skip index: each Add also records the
// document's byte bigrams and trigrams in posting lists (O(distinct grams)
// ≤ 2·|doc| positions per document), and evaluations whose pattern or
// query carries literal requirements intersect those postings to visit
// only candidate documents — non-candidates cost nothing, not even a
// substring scan. Queries without derivable literals are unaffected.
func WithIndex() CorpusOption {
	return func(c *corpusConfig) { c.indexed = true }
}

// NewCorpus creates an empty corpus.
func NewCorpus(opts ...CorpusOption) *Corpus {
	var cfg corpusConfig
	for _, o := range opts {
		o(&cfg)
	}
	store := corpus.NewStore(cfg.shards)
	if cfg.indexed {
		store.EnableIndex()
	}
	if cfg.maxConcurrent > 0 {
		store.SetGate(resilience.NewGate(int64(cfg.maxConcurrent), cfg.maxQueue))
	}
	return newCorpus(store, cfg)
}

// newCorpus finishes construction for NewCorpus and Open: the cache, and
// the metrics registry wired through every layer. The gate and durable
// half must already be installed on the store — SetRegistry registers
// their instruments only when present.
func newCorpus(store *corpus.Store, cfg corpusConfig) *Corpus {
	c := &Corpus{
		store:   store,
		cache:   corpus.NewCache(cfg.cacheCap),
		workers: cfg.workers,
		buffer:  cfg.buffer,
		reg:     obs.NewRegistry(),
	}
	store.SetRegistry(c.reg)
	c.planBuild = c.reg.Histogram("spanjoin_plan_build_seconds", "Compilations of a query plan actually run (cache misses).", nil)
	c.reg.CounterFunc("spanjoin_cache_hits_total", "Compiled-query cache hits, including singleflight joiners.", func() uint64 { h, _ := c.cache.Stats(); return h })
	c.reg.CounterFunc("spanjoin_cache_misses_total", "Compiled-query cache misses (compilations run).", func() uint64 { _, m := c.cache.Stats(); return m })
	c.reg.Gauge("spanjoin_cache_resident", "Compiled artifacts currently cached.", func() float64 { return float64(c.cache.Len()) })
	return c
}

// Add appends a document and returns its stable ID. The empty string is
// a valid document — counted by Len, durable on a durable corpus, and
// evaluated like any other. On a durable corpus whose log has failed Add
// panics with the log's error; use AddErr to handle it instead.
func (c *Corpus) Add(doc string) DocID { return c.store.Add(doc) }

// AddAll appends documents and returns their IDs, indexed like docs.
func (c *Corpus) AddAll(docs ...string) []DocID {
	ids := make([]DocID, len(docs))
	for i, d := range docs {
		ids[i] = c.store.Add(d)
	}
	return ids
}

// Doc returns the document with the given ID.
func (c *Corpus) Doc(id DocID) (string, bool) { return c.store.Get(id) }

// Len reports the number of documents.
func (c *Corpus) Len() int { return c.store.Len() }

// Indexed reports whether the skip index is enabled (WithIndex).
func (c *Corpus) Indexed() bool { return c.store.Indexed() }

// NumShards reports the shard count.
func (c *Corpus) NumShards() int { return c.store.NumShards() }

// CacheStats is a snapshot of the compiled-query cache counters.
type CacheStats struct {
	// Hits counts Eval compilations served from the cache, including
	// callers that joined an in-flight compilation (singleflight).
	Hits uint64
	// Misses counts compilations actually run.
	Misses uint64
	// Resident is the number of compiled artifacts currently cached.
	Resident int
}

// HitRate is Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// CacheStats reports the compiled-query cache counters.
func (c *Corpus) CacheStats() CacheStats {
	h, m := c.cache.Stats()
	return CacheStats{Hits: h, Misses: m, Resident: c.cache.Len()}
}

// CorpusMatch is one streamed corpus result: a match bound to the document
// it was extracted from.
type CorpusMatch struct {
	Doc   DocID
	Match Match
}

// CorpusMatches streams the results of a corpus evaluation. Drain it with
// Next, then check Err; Close aborts early. Results arrive in no
// guaranteed order across documents, but within one document in the
// engine's deterministic radix order.
type CorpusMatches struct {
	res   *corpus.Results
	store *corpus.Store
	vars  span.VarList

	// Last resolved document: matches of one document arrive contiguously,
	// so this avoids a store lookup (shard read lock) per streamed tuple.
	lastID  DocID
	lastDoc string
	lastOK  bool
}

// Next returns the next match; ok is false when the stream is exhausted,
// cancelled or failed — distinguish with Err.
func (m *CorpusMatches) Next() (CorpusMatch, bool) {
	r, ok := m.res.Next()
	if !ok {
		return CorpusMatch{}, false
	}
	if !m.lastOK || r.Doc != m.lastID {
		m.lastDoc, _ = m.store.Get(r.Doc)
		m.lastID, m.lastOK = r.Doc, true
	}
	return CorpusMatch{Doc: r.Doc, Match: Match{vars: m.vars, tuple: r.Tuple, doc: m.lastDoc}}, true
}

// Vars lists the output variables.
func (m *CorpusMatches) Vars() []string { return append([]string(nil), m.vars...) }

// Err reports the first evaluation error or the context's error after a
// cancellation; nil after normal exhaustion, after Close, and after a
// stream that ended by reaching its WithLimit cap. Failure modes are
// typed: an exceeded WithTimeout deadline is context.DeadlineExceeded, an
// exhausted WithBudget is ErrBudgetExceeded, and a panic anywhere in the
// evaluation is a *PanicError — all detectable with errors.Is/errors.As.
func (m *CorpusMatches) Err() error { return m.res.Err() }

// EvalStats is a snapshot of a corpus evaluation's prefilter and work
// counters.
type EvalStats struct {
	// Scanned counts documents the engine actually evaluated.
	Scanned uint64
	// Skipped counts documents the prefilter excluded: skip-index
	// non-candidates plus documents failing the literal requirement scan.
	// Scanned+Skipped equals the snapshot size once the stream drains.
	Skipped uint64
	// SkippedIndex is the subset of Skipped the skip index excluded
	// outright — never visited, not even for a substring scan. Zero
	// without WithIndex.
	SkippedIndex uint64
	// Work is the work units spent so far — one per byte of every scanned
	// document plus one per delivered result; the meter WithBudget is
	// charged against.
	Work uint64
	// Delivered counts results the stream has handed out so far; bounded
	// by WithLimit when one is set.
	Delivered uint64
}

// Visited counts the documents the evaluation touched at all: scanned
// plus those rejected by the literal scan (the skip index's candidate
// set, when the index is on).
func (s EvalStats) Visited() uint64 { return s.Scanned + s.Skipped - s.SkippedIndex }

// Stats reports how many documents the evaluation scanned and skipped so
// far; final after Next has returned ok=false.
func (m *CorpusMatches) Stats() EvalStats {
	return EvalStats{
		Scanned:      m.res.Scanned(),
		Skipped:      m.res.Skipped(),
		SkippedIndex: m.res.SkippedIndex(),
		Work:         m.res.Work(),
		Delivered:    m.res.Delivered(),
	}
}

// Close aborts the evaluation and releases its worker pool. It is
// idempotent and safe to call from any number of goroutines concurrently
// — with each other, with Next, and after exhaustion.
func (m *CorpusMatches) Close() { m.res.Close() }

// evalOptions maps the public per-query options onto the corpus layer's,
// resolving WithTimeout into an absolute deadline at call time.
func (c *Corpus) evalOptions(req prefilter.Requirement, o core.Options) corpus.EvalOptions {
	eo := corpus.EvalOptions{
		Workers:  c.workers,
		Buffer:   c.buffer,
		Required: req,
		Limit:    o.Limit,
		Budget:   o.Budget,
	}
	if o.Timeout > 0 {
		eo.Deadline = time.Now().Add(o.Timeout)
	}
	return eo
}

// target is one corpus call resolved once: the evaluator every operation
// runs (the memoized plan, or a per-document evaluator for queries that
// cannot share one), the spanner behind a plan (nil for per-document
// queries; samples open their ranked views on it), the output variables,
// and the literal requirement that prefilters the sweep. A failed
// resolution travels in err, which the operation returns before starting
// anything.
type target struct {
	corpus.Evaluator
	sp   *Spanner
	vars span.VarList
	req  prefilter.Requirement
	err  error
}

// compileModes maps a compilation mode — the cache-key namespace and the
// Cursor.Mode wire value — to its compile function.
var compileModes = map[string]func(string) (*Spanner, error){
	"anchor": Compile,
	"search": CompileSearch,
}

// compileMode normalises a mode ("" is "anchor") and looks up its compile
// function; ok is false for an unknown mode.
func compileMode(mode string) (norm string, compile func(string) (*Spanner, error), ok bool) {
	if mode == "" {
		mode = "anchor"
	}
	compile, ok = compileModes[mode]
	return mode, compile, ok
}

// compileCached deduplicates compilation through the LRU cache, keyed by
// the pattern source plus the compilation mode; concurrent misses on one
// key compile once. A traced query records the lookup as the cache stage,
// with Items=1 on a miss (the compile closure runs on this goroutine, so
// the flag needs no synchronization) and Items=0 on a hit.
//
//spanjoin:stage cache
func (c *Corpus) compileCached(ctx context.Context, mode, pattern string) (*Spanner, error) {
	mode, compile, ok := compileMode(mode)
	if !ok {
		return nil, fmt.Errorf("%w: unknown mode %q", ErrBadCursor, mode)
	}
	t0 := time.Now()
	var missed int64
	v, err := c.cache.Get(mode+"\x00"+pattern, func() (any, error) {
		missed = 1
		return compile(pattern)
	})
	obs.FromContext(ctx).ObserveItems(obs.StageCache, time.Since(t0), missed)
	if err != nil {
		return nil, err
	}
	return v.(*Spanner), nil
}

// recordPlanBuild attributes a plan compilation that this query actually
// ran — built is false for every later call hitting the memoized plan —
// to the plan-build histogram and the query's trace.
//
//spanjoin:stage plan_build
func (c *Corpus) recordPlanBuild(ctx context.Context, p *enum.Plan, built bool) {
	if !built || p == nil {
		return
	}
	d := p.BuildDuration()
	c.planBuild.Observe(d)
	obs.FromContext(ctx).Observe(obs.StagePlan, d)
}

// pattern resolves a pattern compiled through the corpus cache under the
// given mode.
func (c *Corpus) pattern(ctx context.Context, mode, pattern string) target {
	sp, err := c.compileCached(ctx, mode, pattern)
	if err != nil {
		return target{err: err}
	}
	return c.spanner(ctx, sp)
}

// spanner resolves a spanner to its memoized plan — one compilation per
// Spanner however it is driven, and therefore one per cached query.
func (c *Corpus) spanner(ctx context.Context, sp *Spanner) target {
	p, built, err := sp.compiledPlan()
	if err != nil {
		return target{err: err}
	}
	c.recordPlanBuild(ctx, p, built)
	return target{Evaluator: corpus.Evaluator{Plan: p}, sp: sp, vars: p.Vars(), req: sp.req}
}

// query resolves a conjunctive query. Queries that share a plan
// (Query.sharesPlan: no string equalities, not forced canonical) compile
// once into a spanner (Theorem 3.11) memoized on the Query and resolve
// like any spanner; the rest — equality automata exist only per input
// string (Theorem 5.4) — evaluate document by document with the chosen
// plan. The plan-level requirement (conjunction of the atoms' literal
// requirements) prefilters either way: equalities and projection only
// restrict results further, so it stays necessary under every strategy.
func (c *Corpus) query(ctx context.Context, q *Query, opts []Option) target {
	o := buildOptions(opts)
	if q.sharesPlan(o) {
		sp, err := q.spanner()
		if err != nil {
			return target{err: err}
		}
		return c.spanner(ctx, sp)
	}
	newEval, err := queryDocEval(q, o)
	return target{Evaluator: corpus.Evaluator{Doc: newEval}, vars: q.cq.OutVars(), req: q.requirement(), err: err}
}

// stream runs a target's streaming sweep. The returned wrapper arranges
// for an abandoned stream — one the caller neither drains nor Closes —
// to release its worker pool (and admission slot) when the wrapper
// becomes unreachable. The cleanup attaches to the public wrapper, not
// the internal Results: the pool's goroutines keep Results reachable, so
// only the wrapper's reachability tracks the caller's interest.
func (c *Corpus) stream(ctx context.Context, t target, opts []Option) (*CorpusMatches, error) {
	if t.err != nil {
		return nil, t.err
	}
	res, err := c.store.Eval(ctx, t.Evaluator, c.evalOptions(t.req, buildOptions(opts)))
	if err != nil {
		return nil, err
	}
	m := &CorpusMatches{res: res, store: c.store, vars: t.vars}
	runtime.AddCleanup(m, func(r *corpus.Results) { go r.Close() }, res)
	return m, nil
}

// Eval compiles the pattern (through the corpus cache) and evaluates it
// over every document, streaming matches. The pattern must match whole
// documents, like Spanner.Eval; use EvalSearch for substring semantics.
// Options bound the evaluation: WithTimeout, WithLimit, WithBudget.
func (c *Corpus) Eval(ctx context.Context, pattern string, opts ...Option) (*CorpusMatches, error) {
	return c.stream(ctx, c.pattern(ctx, "anchor", pattern), opts)
}

// EvalSearch is Eval with substring semantics: the pattern is compiled
// unanchored (CompileSearch), cached separately from anchored compiles of
// the same source.
func (c *Corpus) EvalSearch(ctx context.Context, pattern string, opts ...Option) (*CorpusMatches, error) {
	return c.stream(ctx, c.pattern(ctx, "search", pattern), opts)
}

// EvalSpanner evaluates a precompiled spanner over every document in the
// corpus (bypassing the cache). The spanner's required-literal prefilter
// skips non-matching documents before any per-document work, and its
// compiled plan — closures, letter table, byte-class transition table — is
// memoized on the spanner itself, so the corpus cache's Spanners carry
// their plan across Eval calls: one compilation per cached query, then
// pure matrix sweeps over every document the store will ever hold.
// An overloaded corpus (WithMaxConcurrent) sheds the call synchronously
// with ErrOverloaded before any worker starts.
func (c *Corpus) EvalSpanner(ctx context.Context, sp *Spanner, opts ...Option) (*CorpusMatches, error) {
	return c.stream(ctx, c.spanner(ctx, sp), opts)
}

// EvalQuery evaluates a conjunctive query over every document. Queries
// without string equalities compile once into a single automaton (Theorem
// 3.11) and take the shared-enumerator fast path; queries with equalities
// — whose automata exist only per input string (Theorem 5.4) — and
// queries forced onto the canonical strategy evaluate document by
// document with the chosen plan.
func (c *Corpus) EvalQuery(ctx context.Context, q *Query, opts ...Option) (*CorpusMatches, error) {
	return c.stream(ctx, c.query(ctx, q, opts), opts)
}

// queryDocEval builds the per-document evaluator for query plans that
// cannot share a compiled enumerator (Query.docEnumerate).
// Per-document plans rebuild their iterator per document, so the
// query-liveness probe (stop) has no long build to interrupt — the emit
// path already observes cancellation per tuple; they ignore it.
func queryDocEval(q *Query, o core.Options) (corpus.NewDocEval, error) {
	enumerate, err := q.docEnumerate(o)
	if err != nil {
		return nil, err
	}
	return func(func() bool) corpus.DocEval {
		return func(doc string, emit func(span.Tuple) bool) error {
			it, err := enumerate(doc)
			if err != nil {
				return err
			}
			for {
				t, ok := it.Next()
				if !ok || !emit(t) {
					return nil
				}
			}
		}
	}, nil
}

// EvalAll is Eval materialized: all matches grouped by document. Documents
// without matches have no entry.
func (c *Corpus) EvalAll(ctx context.Context, pattern string, opts ...Option) (map[DocID][]Match, error) {
	ms, err := c.stream(ctx, c.pattern(ctx, "anchor", pattern), opts)
	if err != nil {
		return nil, err
	}
	defer ms.Close()
	out := make(map[DocID][]Match)
	for {
		m, ok := ms.Next()
		if !ok {
			break
		}
		out[m.Doc] = append(out[m.Doc], m.Match)
	}
	if err := ms.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
