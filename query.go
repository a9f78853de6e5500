package spanjoin

import (
	"context"
	"fmt"
	"sync"

	"spanjoin/internal/core"
	"spanjoin/internal/prefilter"
	"spanjoin/internal/span"
	"spanjoin/internal/vsa"
)

// Strategy selects how a query is evaluated.
type Strategy = core.Strategy

const (
	// StrategyAuto follows the paper's tractability conditions: the
	// canonical relational plan when every atom is polynomially bounded and
	// the query is acyclic, compilation to automata otherwise.
	StrategyAuto = core.Auto
	// StrategyCanonical materializes every atom's span relation and
	// evaluates relationally (Yannakakis on acyclic queries).
	StrategyCanonical = core.Canonical
	// StrategyAutomata compiles the query into one vset-automaton and
	// enumerates it with polynomial delay.
	StrategyAutomata = core.Automata
)

// Option configures query evaluation.
type Option func(*core.Options)

// WithStrategy forces an evaluation strategy.
func WithStrategy(s Strategy) Option {
	return func(o *core.Options) { o.Strategy = s }
}

// WithPolyBoundVarLimit sets the variable-count threshold under which an
// atom is assumed polynomially bounded without running the key-attribute
// test (default 1).
func WithPolyBoundVarLimit(k int) Option {
	return func(o *core.Options) { o.PolyBoundVarLimit = k }
}

// Query is a conjunctive query over regex atoms, optionally with
// string-equality predicates and a projection — the paper's regex CQ
// (with string equalities):
//
//	π_Y ( ζ=_{x1,y1} … ζ=_{xm,ym} (α1 ⋈ … ⋈ αk) )
type Query struct {
	cq *core.CQ

	// Document-independent compilation artifacts, memoized per Query (a
	// built Query is immutable): the query compiled into one spanner
	// (equality-free queries; its enum.Plan is shared by every corpus
	// worker and Count call), and the bare atom join (the hoistable prefix
	// of the automata plan when equalities must still compile per
	// document).
	spOnce   sync.Once
	sp       *Spanner
	spErr    error
	joinOnce sync.Once
	joined   *vsa.VSA
	joinErr  error
}

// sharesPlan is the rule deciding how q evaluates under o: equality-free
// queries not forced onto the canonical strategy compile once into a
// single automaton (Theorem 3.11, Query.spanner) whose plan every document
// shares; the rest evaluate document by document (Query.docEnumerate) —
// equality automata exist only per input string (Theorem 5.4).
func (q *Query) sharesPlan(o core.Options) bool {
	return len(q.cq.Equalities) == 0 && o.Strategy != core.Canonical
}

// spanner memoizes CQ.Compile — joins plus pushed-in projection, valid
// only when sharesPlan — as a spanner carrying the query's requirement,
// so the compiled plan and prefilter are memoized and driven like any
// spanner's.
func (q *Query) spanner() (*Spanner, error) {
	q.spOnce.Do(func() {
		auto, err := q.cq.Compile()
		if err != nil {
			q.spErr = err
			return
		}
		q.sp = &Spanner{auto: auto, req: q.requirement()}
	})
	return q.sp, q.spErr
}

// joinedAtoms memoizes CQ.JoinAtoms: the document-independent join prefix
// of the automata plan.
func (q *Query) joinedAtoms() (*vsa.VSA, error) {
	q.joinOnce.Do(func() { q.joined, q.joinErr = q.cq.JoinAtoms() })
	return q.joined, q.joinErr
}

// docEnumerate resolves q's per-document evaluation under o once: the
// strategy is planned up front, and the automata plan reuses the memoized
// atom join, leaving only the document-dependent tail — equality
// compilation, projection, enumeration (Thm 5.4) — per document. It is
// the same automaton CQ.Enumerate would assemble, so the order is too.
func (q *Query) docEnumerate(o core.Options) (func(doc string) (core.Iterator, error), error) {
	if o.Strategy = q.cq.Plan(o); o.Strategy == core.Canonical {
		return func(doc string) (core.Iterator, error) { return q.cq.Enumerate(doc, o) }, nil
	}
	joined, err := q.joinedAtoms()
	if err != nil {
		return nil, err
	}
	return func(doc string) (core.Iterator, error) { return q.cq.EnumerateJoined(joined, doc) }, nil
}

// QueryBuilder assembles a Query; errors accumulate and surface at Build.
type QueryBuilder struct {
	cq  *core.CQ
	err error
}

// NewQuery starts a query builder.
func NewQuery() *QueryBuilder {
	return &QueryBuilder{cq: &core.CQ{}}
}

// Atom adds a regex atom from a pattern.
func (b *QueryBuilder) Atom(pattern string) *QueryBuilder {
	return b.AtomNamed(fmt.Sprintf("atom%d", len(b.cq.Atoms)+1), pattern)
}

// AtomNamed adds a named regex atom (names appear in error messages).
func (b *QueryBuilder) AtomNamed(name, pattern string) *QueryBuilder {
	if b.err != nil {
		return b
	}
	a, err := core.NewAtom(name, pattern)
	if err != nil {
		b.err = err
		return b
	}
	b.cq.Atoms = append(b.cq.Atoms, a)
	return b
}

// AtomSpanner adds a precompiled spanner as an atom.
func (b *QueryBuilder) AtomSpanner(name string, s *Spanner) *QueryBuilder {
	if b.err != nil {
		return b
	}
	a, err := core.AtomFromVSA(name, s.vsa())
	if err != nil {
		b.err = err
		return b
	}
	// The spanner's compile-time requirement transfers to the atom (the
	// automaton alone cannot reproduce it).
	a.Req = s.requirement()
	b.cq.Atoms = append(b.cq.Atoms, a)
	return b
}

// Equal adds the string-equality predicate ζ=_{x,y}: x and y must span
// equal substrings (possibly at different positions). Equality predicates
// are compiled per input string at evaluation time (Theorem 5.4).
func (b *QueryBuilder) Equal(x, y string) *QueryBuilder {
	if b.err != nil {
		return b
	}
	b.cq.Equalities = append(b.cq.Equalities, [2]string{x, y})
	return b
}

// Project restricts the output to the given variables. Projecting onto no
// variables yields a Boolean query.
func (b *QueryBuilder) Project(vars ...string) *QueryBuilder {
	if b.err != nil {
		return b
	}
	b.cq.Projection = span.NewVarList(vars...)
	return b
}

// Build validates and returns the query.
func (b *QueryBuilder) Build() (*Query, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.cq.Validate(); err != nil {
		return nil, err
	}
	return &Query{cq: b.cq}, nil
}

// MustBuild panics on error; for statically known queries.
func (b *QueryBuilder) MustBuild() *Query {
	q, err := b.Build()
	if err != nil {
		panic(err)
	}
	return q
}

// Vars lists the output variables.
func (q *Query) Vars() []string { return append([]string(nil), q.cq.OutVars()...) }

// RequiredLiterals exposes the query's plan-level prefilter: every result
// document must contain every returned literal (the conjunction of the
// atoms' requirements — a result tuple joins all atoms). Empty when no
// atom yields a factor.
func (q *Query) RequiredLiterals() []string { return q.cq.Requirement().Literals() }

// requirement exposes the prefilter requirement to the corpus layer.
func (q *Query) requirement() prefilter.Requirement { return q.cq.Requirement() }

// IsAcyclic reports alpha-acyclicity of the query hypergraph (atoms plus
// equality predicates).
func (q *Query) IsAcyclic() bool { return q.cq.IsAcyclic() }

// IsGammaAcyclic reports gamma-acyclicity of the query hypergraph.
func (q *Query) IsGammaAcyclic() bool { return q.cq.IsGammaAcyclic() }

// Evaluate materializes all result tuples on doc. As for Spanner.Eval,
// WithTimeout bounds the evaluation (a fired timeout is
// context.DeadlineExceeded, never a partial result) and WithLimit caps
// the number of materialized results.
func (q *Query) Evaluate(doc string, opts ...Option) ([]Match, error) {
	o := buildOptions(opts)
	ctx, cancel := withTimeout(context.Background(), o)
	defer cancel()
	ms, err := q.iterate(ctx, doc, o)
	if err != nil {
		return nil, err
	}
	out, _, err := collect(ms, o.Limit, true)
	return out, err
}

// Iterate evaluates the query and returns a tuple iterator. Under
// StrategyAutomata (and for k-bounded queries under StrategyAuto) the
// iterator has polynomial delay (Theorem 3.11 / Corollary 5.5).
func (q *Query) Iterate(doc string, opts ...Option) (*Matches, error) {
	return q.IterateCtx(context.Background(), doc, opts...)
}

// IterateCtx is Iterate with cancellation: the returned iterator checks
// ctx periodically and stops once it is done. After Next returns ok=false,
// Matches.Err distinguishes cancellation (the context's error) from
// exhaustion (nil).
func (q *Query) IterateCtx(ctx context.Context, doc string, opts ...Option) (*Matches, error) {
	return q.iterate(ctx, doc, buildOptions(opts))
}

// iterate is the one opener of single-document query evaluation. A
// context already done fails fast, before a canonical plan materializes
// anything.
func (q *Query) iterate(ctx context.Context, doc string, o core.Options) (*Matches, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	enumerate, err := q.docEnumerate(o)
	if err != nil {
		return nil, err
	}
	it, err := enumerate(doc)
	if err != nil {
		return nil, err
	}
	return newMatches(ctx, it, it.Vars(), doc), nil
}

// Exists decides Boolean satisfaction: whether the query has at least one
// result on doc. It is Evaluate with limit 1, WithTimeout included.
func (q *Query) Exists(doc string, opts ...Option) (bool, error) {
	ms, err := q.Evaluate(doc, append(opts[:len(opts):len(opts)], WithLimit(1))...)
	return len(ms) > 0, err
}

func buildOptions(opts []Option) core.Options {
	var o core.Options
	for _, f := range opts {
		f(&o)
	}
	return o
}

// UnionQuery is a union of conjunctive queries (the paper's regex UCQ).
// All disjuncts must share the same output variables.
type UnionQuery struct {
	ucq *core.UCQ
}

// NewUnion combines queries into a UCQ.
func NewUnion(qs ...*Query) (*UnionQuery, error) {
	u := &core.UCQ{}
	for _, q := range qs {
		u.Disjuncts = append(u.Disjuncts, q.cq)
	}
	if err := u.Validate(); err != nil {
		return nil, err
	}
	return &UnionQuery{ucq: u}, nil
}

// Vars lists the output variables.
func (u *UnionQuery) Vars() []string { return append([]string(nil), u.ucq.OutVars()...) }

// RequiredLiterals exposes the union's prefilter: a result may come from
// any disjunct, so only literals every disjunct requires remain necessary.
func (u *UnionQuery) RequiredLiterals() []string { return u.ucq.Requirement().Literals() }

// Evaluate materializes all result tuples on doc, duplicate free across
// disjuncts. WithTimeout and WithLimit apply as for Query.Evaluate.
func (u *UnionQuery) Evaluate(doc string, opts ...Option) ([]Match, error) {
	o := buildOptions(opts)
	ctx, cancel := withTimeout(context.Background(), o)
	defer cancel()
	ms, err := u.iterate(ctx, doc, o)
	if err != nil {
		return nil, err
	}
	out, _, err := collect(ms, o.Limit, true)
	return out, err
}

// Iterate evaluates the UCQ. Under the automata strategy the entire union
// compiles into one vset-automaton whose enumeration is duplicate free by
// construction (Lemma 3.9 + Theorem 3.3).
func (u *UnionQuery) Iterate(doc string, opts ...Option) (*Matches, error) {
	return u.iterate(context.Background(), doc, buildOptions(opts))
}

// iterate is the one opener of single-document UCQ evaluation; like
// Query.iterate it fails fast on a context already done.
func (u *UnionQuery) iterate(ctx context.Context, doc string, o core.Options) (*Matches, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	it, err := u.ucq.Enumerate(doc, o)
	if err != nil {
		return nil, err
	}
	return newMatches(ctx, it, it.Vars(), doc), nil
}

// PlannedStrategy reports which strategy Evaluate would use for the given
// options (resolving StrategyAuto against the paper's tractability
// conditions: acyclic shape plus polynomially bounded atoms → canonical).
func (q *Query) PlannedStrategy(opts ...Option) Strategy {
	return q.cq.Plan(buildOptions(opts))
}
