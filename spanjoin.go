// Package spanjoin is a document-spanner engine: it extracts relations of
// spans from text with regular expressions extended by capture variables
// ("regex formulas"), and evaluates relational-algebra queries — joins,
// unions, projections and string-equality selections — over those
// extractions.
//
// It is a faithful, production-oriented implementation of
// "Joining Extractions of Regular Expressions" (Freydenberger, Kimelfeld,
// Peterfreund; PODS 2018), including:
//
//   - compilation of regex formulas into functional vset-automata
//     (Lemma 3.4),
//   - enumeration of all matches with polynomial delay and inherent
//     deduplication (Theorem 3.3),
//   - the spanner algebra on automata: Join, Union, Project
//     (Lemmas 3.8–3.10),
//   - conjunctive queries and unions thereof over regex atoms, evaluated
//     either by compiling to a single automaton (Theorem 3.11) or by the
//     canonical relational plan with Yannakakis' algorithm (Theorem 3.5),
//   - string-equality selections compiled per input string (Theorem 5.4).
//
// # Quick start
//
//	sp := spanjoin.MustCompile(`.* mail{user{[a-z]+}@domain{[a-z]+\.[a-z]+}} .*`)
//	matches, _ := sp.Eval(" write to alice@example.org today ")
//	for _, m := range matches {
//	    fmt.Println(m.MustSubstr("mail"))
//	}
//
// Patterns must match the whole document (the paper's semantics); wrap with
// `.*` to search. A pattern must be functional: every variable is bound
// exactly once on every path (e.g. `x{a}|y{b}` is rejected).
package spanjoin

import (
	"context"
	"fmt"
	"sync"

	"spanjoin/internal/core"
	"spanjoin/internal/enum"
	"spanjoin/internal/prefilter"
	"spanjoin/internal/rgx"
	"spanjoin/internal/span"
	"spanjoin/internal/vsa"
)

// Span is a half-open interval [Start, End⟩ of 1-based positions in a
// document, following the paper's notation: Substr covers positions
// Start … End-1.
type Span = span.Span

// Match is one result tuple: an assignment of a span to every output
// variable, bound to the document it was extracted from.
type Match struct {
	vars  span.VarList
	tuple span.Tuple
	doc   string
}

// Vars lists the variables of the match in sorted order.
func (m Match) Vars() []string { return append([]string(nil), m.vars...) }

// Span returns the span assigned to the variable.
func (m Match) Span(name string) (Span, bool) {
	i := m.vars.Index(name)
	if i < 0 {
		return Span{}, false
	}
	return m.tuple[i], true
}

// Substr returns the substring the variable's span covers.
func (m Match) Substr(name string) (string, bool) {
	p, ok := m.Span(name)
	if !ok {
		return "", false
	}
	return p.Substr(m.doc), true
}

// MustSubstr is Substr for variables known to exist; it panics otherwise.
func (m Match) MustSubstr(name string) string {
	s, ok := m.Substr(name)
	if !ok {
		panic("spanjoin: no variable " + name)
	}
	return s
}

// String renders the match as "x=[i,j⟩(substr) …".
func (m Match) String() string {
	out := ""
	for i, v := range m.vars {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%v(%q)", v, m.tuple[i], m.tuple[i].Substr(m.doc))
	}
	return out
}

// Spanner is a compiled document spanner (a functional vset-automaton).
// Spanners are immutable and safe for concurrent use.
type Spanner struct {
	auto *vsa.VSA
	// req is the literal requirement every matching document must satisfy
	// (empty if none was derived); Iterate uses it to skip non-matching
	// documents without touching the automaton, and the spanner algebra
	// propagates it through composition: Join and Project carry both
	// operands' factors, Union keeps those common to all branches.
	req prefilter.Requirement

	// plan is the memoized document-independent compiled state (trimmed
	// automaton, closures, letter table, byte-class transition table),
	// built lazily at most once per Spanner — and therefore at most once
	// per cached corpus query, since the corpus cache stores Spanners.
	planOnce sync.Once
	plan     *enum.Plan
	planErr  error
}

// compiledPlan memoizes enum.NewPlan over the spanner's automaton. Every
// evaluation path shares it — the single-document opener (open) and the
// corpus sweeps (Corpus.spanner) — so trimming, the functionality check,
// closure computation and the transition-table build happen once per
// Spanner however the spanner is driven. built reports whether this call
// ran the compilation — the corpus layer records the plan_build stage
// only then, so cached queries never report a phantom build.
func (s *Spanner) compiledPlan() (p *enum.Plan, built bool, err error) {
	s.planOnce.Do(func() {
		s.plan, s.planErr = enum.NewPlan(s.auto)
		built = true
	})
	return s.plan, built, s.planErr
}

// Compile parses and compiles a regex-formula pattern.
func Compile(pattern string) (*Spanner, error) {
	f, err := rgx.Parse(pattern)
	if err != nil {
		return nil, err
	}
	a, err := rgx.Compile(f)
	if err != nil {
		return nil, err
	}
	return &Spanner{auto: a, req: prefilter.New(rgx.RequiredLiterals(f.Root)...)}, nil
}

// MustCompile is Compile for statically known patterns; panics on error.
func MustCompile(pattern string) *Spanner {
	s, err := Compile(pattern)
	if err != nil {
		panic(err)
	}
	return s
}

// Vars lists the spanner's capture variables in sorted order.
func (s *Spanner) Vars() []string { return append([]string(nil), s.auto.Vars...) }

// Stats reports automaton size (states, transitions) — useful for
// understanding the cost of composed spanners.
func (s *Spanner) Stats() (states, transitions int) {
	return s.auto.NumStates(), s.auto.NumTransitions()
}

// Eval materializes all matches of the spanner on doc, in the engine's
// deterministic (radix) order. Unlike Iterate, Eval drains internally —
// the caller never holds the iterator — so the resilience options apply
// here: WithTimeout bounds the whole evaluation (spanlint's ctxthread
// analyzer requires every such entry point to carry a deadline) and
// WithLimit caps the number of materialized matches. A fired timeout is
// reported as context.DeadlineExceeded, never as an empty result.
func (s *Spanner) Eval(doc string, opts ...Option) ([]Match, error) {
	o := buildOptions(opts)
	ctx, cancel := withTimeout(context.Background(), o)
	defer cancel()
	ms, err := s.IterateCtx(ctx, doc)
	if err != nil {
		return nil, err
	}
	out, _, err := collect(ms, o.Limit, true)
	return out, err
}

// withTimeout derives the context that bounds one evaluation: ctx under
// o.Timeout, or ctx itself when no timeout is set.
func withTimeout(ctx context.Context, o core.Options) (context.Context, context.CancelFunc) {
	if o.Timeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, o.Timeout)
}

// collect drains ms — the one drain loop of every single-document entry
// point that materializes or counts internally. It stops after limit
// matches (0: no limit) and keeps them only when keep is set; n is how
// many it took. A context that fired before or during the drain surfaces
// as its error, never as a partial result.
func collect(ms *Matches, limit uint64, keep bool) (out []Match, n uint64, err error) {
	for ; limit == 0 || n < limit; n++ {
		m, ok := ms.Next()
		if !ok {
			break
		}
		if keep {
			out = append(out, m)
		}
	}
	if err := ms.Err(); err != nil {
		return nil, 0, err
	}
	return out, n, nil
}

// prefilterEmpty reports whether the required-literal prefilter proves
// doc has no matches, sparing the O(n²·|doc|) graph build. It never
// claims emptiness for a spanner whose plan fails to compile, so
// non-functional automata still surface their error from the caller's
// own compile path.
func (s *Spanner) prefilterEmpty(doc string) bool {
	if s.req.IsEmpty() || s.req.Match(doc) {
		return false
	}
	_, _, err := s.compiledPlan()
	return err == nil
}

// open is the one opener of single-document spanner evaluation: every
// iterator, stream and ranked view gets its enumerator here. It returns
// nil when the prefilter proves doc empty; otherwise it Resets reuse (a
// Stream's enumerator) or a fresh enumerator of the memoized plan onto
// doc. The build is interruptible only when ctx can fire, and a ctx that
// is done before or during the build is returned as the error.
func (s *Spanner) open(ctx context.Context, doc string, reuse *enum.Enumerator) (*enum.Enumerator, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.prefilterEmpty(doc) {
		return nil, nil
	}
	p, _, err := s.compiledPlan()
	if err != nil {
		return nil, err
	}
	e := reuse
	if e == nil {
		e = p.NewEnumerator()
	}
	if ctx.Done() != nil {
		e.SetInterrupt(func() bool { return ctx.Err() != nil })
	} else {
		e.SetInterrupt(nil)
	}
	e.Reset(doc)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e, nil
}

// Iterate enumerates matches with polynomial delay (Theorem 3.3): the time
// to the first match and between consecutive matches is O(n²·|doc|) for an
// n-state spanner, independent of the result count.
func (s *Spanner) Iterate(doc string) (*Matches, error) {
	return s.IterateCtx(context.Background(), doc)
}

// IterateCtx is Iterate with cancellation: the context is polled both
// inside the graph build (amortized, so a pathological document cannot
// wedge the caller before the first match) and between matches. A context
// done before the graph is built is returned as the error; after Next
// returns ok=false, Matches.Err distinguishes cancellation from exhaustion.
func (s *Spanner) IterateCtx(ctx context.Context, doc string) (*Matches, error) {
	return (&Stream{sp: s}).iterate(ctx, doc)
}

// RequiredLiteral exposes the most selective prefilter factor derived at
// compile time: a byte string every matching document must contain, or "".
func (s *Spanner) RequiredLiteral() string { return s.req.Longest() }

// RequiredLiterals exposes the full prefilter requirement: every matching
// document must contain every returned literal. Composed spanners
// accumulate their operands' factors (Join, Project) or keep the common
// ones (Union).
func (s *Spanner) RequiredLiterals() []string { return s.req.Literals() }

// requirement exposes the prefilter requirement to the corpus layer.
func (s *Spanner) requirement() prefilter.Requirement { return s.req }

// Stream evaluates a sequence of documents through one compiled spanner,
// reusing a single enumerator: the automaton is trimmed, checked for
// functionality and closed over once, and every document after the first
// rebuilds the layered graph into preallocated arenas, so steady-state
// evaluation allocates almost nothing per document beyond the matches.
// A Stream is not safe for concurrent use; open one per goroutine (they
// share nothing mutable with their Spanner) or use a Corpus.
type Stream struct {
	sp *Spanner
	e  *enum.Enumerator
}

// NewStream opens a reusable evaluation stream over the spanner.
func (s *Spanner) NewStream() *Stream { return &Stream{sp: s} }

// Eval materializes all matches of the stream's spanner on doc, like
// Spanner.Eval but amortizing the per-document setup across the stream.
func (st *Stream) Eval(doc string) ([]Match, error) {
	return st.EvalCtx(context.Background(), doc)
}

// EvalCtx is Eval with cancellation: the graph build and the drain poll
// ctx (amortized) and return its error once cancelled, so a pathological
// document cannot wedge the stream's caller.
func (st *Stream) EvalCtx(ctx context.Context, doc string) ([]Match, error) {
	ms, err := st.iterate(ctx, doc)
	if err != nil {
		return nil, err
	}
	out, _, err := collect(ms, 0, true)
	return out, err
}

// Iterate enumerates matches on doc with polynomial delay. The returned
// Matches borrows the stream's enumerator: drain (or abandon) it before the
// next Iterate or Eval call on the same stream.
func (st *Stream) Iterate(doc string) (*Matches, error) {
	return st.iterate(context.Background(), doc)
}

// iterate opens doc on the stream's enumerator, creating it on first use
// (a Spanner's IterateCtx is a one-document stream). A prefilter-empty
// document streams nothing without touching the enumerator.
func (st *Stream) iterate(ctx context.Context, doc string) (*Matches, error) {
	e, err := st.sp.open(ctx, doc, st.e)
	if err != nil {
		return nil, err
	}
	if e == nil {
		return newMatches(ctx, emptyIter{}, st.sp.auto.Vars, doc), nil
	}
	st.e = e
	return newMatches(ctx, e, st.sp.auto.Vars, doc), nil
}

// EvalAll evaluates the spanner on every document through one reused
// enumerator, returning per-document match sets indexed like docs. The
// resilience options apply across the whole call: WithTimeout bounds
// total wall-clock over all documents (the ctxthread contract for batch
// entry points) and WithLimit caps each document's match set — the drain
// stops there rather than materializing the rest.
func (s *Spanner) EvalAll(docs []string, opts ...Option) ([][]Match, error) {
	o := buildOptions(opts)
	ctx, cancel := withTimeout(context.Background(), o)
	defer cancel()
	st := s.NewStream()
	out := make([][]Match, len(docs))
	for i, doc := range docs {
		ms, err := st.iterate(ctx, doc)
		if err != nil {
			return nil, err
		}
		if out[i], _, err = collect(ms, o.Limit, true); err != nil {
			return nil, err
		}
	}
	return out, nil
}

type emptyIter struct{}

func (emptyIter) Next() (span.Tuple, bool) { return nil, false }
func (emptyIter) Vars() span.VarList       { return nil }

// Matches iterates over the result of a spanner or query evaluation.
type Matches struct {
	it   core.Iterator
	vars span.VarList
	doc  string
	// ctx is the context of a stream opened with one that can fire (nil
	// otherwise); it is polled on the first Next and every 64 matches
	// after, and err keeps the error it reported.
	ctx context.Context
	err error
	// consumed is the index of the next match Next will return — the
	// absolute position Skip seeks from.
	consumed uint64
}

// newMatches streams it over doc, bounded by ctx when ctx can fire.
func newMatches(ctx context.Context, it core.Iterator, vars span.VarList, doc string) *Matches {
	ms := &Matches{it: it, vars: vars, doc: doc}
	if ctx.Done() != nil {
		ms.ctx = ctx
	}
	return ms
}

// poll ends the stream for good once its context is done.
func (ms *Matches) poll() {
	if ms.ctx == nil {
		return
	}
	if err := ms.ctx.Err(); err != nil {
		ms.err, ms.ctx, ms.it = err, nil, emptyIter{}
	}
}

// step advances the underlying iterator by one tuple, polling the
// context every 64 tuples.
func (ms *Matches) step() (span.Tuple, bool) {
	if ms.consumed&63 == 0 {
		ms.poll()
	}
	t, ok := ms.it.Next()
	if ok {
		ms.consumed++
	}
	return t, ok
}

// Next returns the next match; ok is false when exhausted.
func (ms *Matches) Next() (Match, bool) {
	t, ok := ms.step()
	if !ok {
		return Match{}, false
	}
	return Match{vars: ms.vars, tuple: t, doc: ms.doc}, true
}

// Vars lists the output variables.
func (ms *Matches) Vars() []string { return append([]string(nil), ms.vars...) }

// Err distinguishes cancellation from exhaustion after Next has returned
// ok=false: streams opened with a context (Spanner.IterateCtx,
// Query.IterateCtx) report the context's error once it fires; plain
// Iterate streams always report nil.
func (ms *Matches) Err() error { return ms.err }

// Join composes two spanners with the natural join ⋈ (Lemma 3.10): results
// agree on shared variables' spans. The construction is O(v·n⁴); joining
// many spanners multiplies automaton sizes, so prefer Query for larger
// conjunctions.
func Join(a, b *Spanner) (*Spanner, error) {
	j, err := vsa.Join(a.auto, b.auto)
	if err != nil {
		return nil, err
	}
	// A joined match satisfies both operands, so the composed spanner
	// requires both operands' literals.
	return &Spanner{auto: j, req: a.req.And(b.req)}, nil
}

// Union composes spanners with identical variable sets into their union
// (Lemma 3.9); linear time.
func Union(ss ...*Spanner) (*Spanner, error) {
	autos := make([]*vsa.VSA, len(ss))
	reqs := make([]prefilter.Requirement, len(ss))
	for i, s := range ss {
		autos[i] = s.auto
		reqs[i] = s.req
	}
	u, err := vsa.Union(autos...)
	if err != nil {
		return nil, err
	}
	// A union match may come from any branch: only factors every branch
	// requires remain necessary.
	return &Spanner{auto: u, req: prefilter.Or(reqs...)}, nil
}

// Project restricts the spanner to the given variables (Lemma 3.8);
// linear time.
func Project(s *Spanner, vars ...string) (*Spanner, error) {
	p, err := vsa.Project(s.auto, span.NewVarList(vars...))
	if err != nil {
		return nil, err
	}
	// Projection never changes which documents match, only the output
	// schema, so the operand's requirement carries over unchanged.
	return &Spanner{auto: p, req: s.req}, nil
}

// KeyAttribute decides whether x is a key attribute of the spanner
// (Prop 3.6): whether x's span functionally determines the whole match.
// Key attributes guarantee at most O(|doc|²) matches (a "polynomially
// bounded" spanner, §3.3.2).
func (s *Spanner) KeyAttribute(x string) (bool, error) {
	return vsa.KeyAttribute(s.auto, x)
}

// auto exposes the underlying automaton to the query layer.
func (s *Spanner) vsa() *vsa.VSA { return s.auto }
