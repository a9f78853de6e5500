package core

import (
	"fmt"
	"time"

	"spanjoin/internal/enum"
	"spanjoin/internal/rel"
	"spanjoin/internal/span"
	"spanjoin/internal/strequal"
	"spanjoin/internal/vsa"
)

// Strategy selects the evaluation plan.
type Strategy int

const (
	// Auto follows the paper's tractability conditions: canonical
	// relational evaluation when every atom is polynomially bounded and the
	// query hypergraph is acyclic (Thm 3.5 / Cor 5.3); compilation to
	// automata otherwise (Thm 3.11 / Cor 5.5).
	Auto Strategy = iota
	// Canonical materializes every atom relation and evaluates relationally.
	Canonical
	// Automata compiles the query into one functional vset-automaton and
	// enumerates it with polynomial delay.
	Automata
)

func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case Canonical:
		return "canonical"
	case Automata:
		return "automata"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Options configure evaluation.
type Options struct {
	Strategy Strategy
	// PolyBoundVarLimit: atoms with at most this many variables count as
	// polynomially bounded without running the key-attribute test
	// (|[[α]](s)| ≤ (N+1)^(2v)). Default 1.
	PolyBoundVarLimit int

	// Timeout, Limit and Budget are the resilience knobs. Timeout bounds
	// the whole evaluation wall-clock and Limit caps delivered results,
	// for corpus evaluations and for every single-document entry point
	// that drains internally (Eval, Evaluate, Exists; Count honours
	// Timeout only) — Iterate's callers hold the iterator and bound it
	// themselves, via IterateCtx. Budget caps a corpus evaluation's work
	// units (document bytes scanned + results delivered). Zero values
	// mean unbounded.
	Timeout time.Duration
	Limit   uint64
	Budget  uint64
}

func (o Options) varLimit() int {
	if o.PolyBoundVarLimit <= 0 {
		return 1
	}
	return o.PolyBoundVarLimit
}

// Compile performs the static part of the automata plan for a CQ: join all
// atom automata (Lemma 3.10) and push the projection in (Lemma 3.8).
// String-equality selections are *not* compiled here — they depend on the
// input string (Thm 5.4) and are applied by Enumerate.
func (q *CQ) Compile() (*vsa.VSA, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	joined, err := q.JoinAtoms()
	if err != nil {
		return nil, err
	}
	if len(q.Equalities) == 0 && q.Projection != nil {
		return vsa.Project(joined, q.Projection)
	}
	// With equalities, projection must wait until after the runtime join
	// with A_eq (the equality variables may be projected away).
	return joined, nil
}

// Enumerate evaluates the CQ on s with the chosen strategy and returns a
// tuple iterator. The automata plan streams with polynomial delay; the
// canonical plan materializes and then iterates.
func (q *CQ) Enumerate(s string, opts Options) (Iterator, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if q.Plan(opts) == Canonical {
		r, err := q.evalCanonical(s, opts)
		if err != nil {
			return nil, err
		}
		r.Sort()
		return &sliceIter{vars: r.Vars, tuples: r.Tuples}, nil
	}
	joined, err := q.JoinAtoms()
	if err != nil {
		return nil, err
	}
	return q.EnumerateJoined(joined, s)
}

// Eval evaluates the CQ and materializes the result.
func (q *CQ) Eval(s string, opts Options) (*rel.Relation, error) {
	it, err := q.Enumerate(s, opts)
	if err != nil {
		return nil, err
	}
	return Drain(it), nil
}

// pick implements the Auto planner.
func (q *CQ) pick(opts Options) Strategy {
	if !q.IsAcyclic() {
		return Automata
	}
	for _, a := range q.Atoms {
		if q.atomPolyBounded(a, opts) {
			continue
		}
		return Automata
	}
	return Canonical
}

// atomPolyBounded applies the paper's two sufficient conditions (§3.3.2):
// at most k variables for fixed k, or a key attribute (Prop 3.6).
func (q *CQ) atomPolyBounded(a *Atom, opts Options) bool {
	if len(a.Vars()) <= opts.varLimit() {
		return true
	}
	_, ok, err := vsa.HasKeyAttribute(a.Auto)
	return err == nil && ok
}

// JoinAtoms performs the document-independent part of the automata plan:
// the join of all atom automata (Lemma 3.10), before equality selections
// and projection. Callers evaluating one query over many documents compute
// it once and pass it to EnumerateJoined per document.
func (q *CQ) JoinAtoms() (*vsa.VSA, error) {
	return vsa.JoinAll(atomAutos(q.Atoms)...)
}

// EnumerateJoined applies the document-dependent tail of the automata plan
// to a precomputed atom join: string-equality compilation for s (Thm 5.4),
// projection, and polynomial-delay enumeration. joined must come from
// JoinAtoms on the same query.
func (q *CQ) EnumerateJoined(joined *vsa.VSA, s string) (Iterator, error) {
	a, err := strequal.Apply(joined, s, q.Equalities)
	if err != nil {
		return nil, err
	}
	if q.Projection != nil {
		if a, err = vsa.Project(a, q.Projection); err != nil {
			return nil, err
		}
	}
	// The assembled automaton exists for this document only: skip the
	// transition-table compilation that could never amortize.
	return enum.PrepareOnce(a, s)
}

// evalCanonical is the canonical relational plan: materialize each atom
// relation via the polynomial-delay enumerator, materialize one relation
// per equality atom (polynomial, Cor 5.3), then evaluate with Yannakakis
// when the hypergraph is acyclic, greedy hash joins otherwise.
func (q *CQ) evalCanonical(s string, opts Options) (*rel.Relation, error) {
	rels := make([]*rel.Relation, 0, len(q.Atoms)+len(q.Equalities))
	for _, a := range q.Atoms {
		vars, tuples, err := enum.Eval(a.Auto, s)
		if err != nil {
			return nil, fmt.Errorf("atom %s: %w", a.Name, err)
		}
		rels = append(rels, rel.FromTuples(vars, tuples))
	}
	for _, eq := range q.Equalities {
		rels = append(rels, equalityRelation(s, eq[0], eq[1]))
	}
	h := q.Hypergraph()
	out := q.OutVars()
	if tree, ok := h.IsAcyclic(); ok {
		if q.IsBoolean() {
			r := rel.NewRelation(nil)
			if rel.YannakakisBoolean(tree, rels) {
				r.Add(span.Tuple{})
			}
			return r, nil
		}
		return rel.Yannakakis(tree, rels, out), nil
	}
	return rel.JoinAllGreedy(rels).Project(out), nil
}

// equalityRelation materializes the relation of the equality atom
// ζ=_{x,y}: all pairs of spans of s with equal substrings, enumerated from
// the longest-common-extension table in O(N³) output size.
func equalityRelation(s, x, y string) *rel.Relation {
	vars := span.NewVarList(x, y)
	xi := vars.Index(x)
	r := rel.NewRelation(vars)
	lce := strequal.LCE(s)
	n := len(s)
	for i := 1; i <= n+1; i++ {
		for j := 1; j <= n+1; j++ {
			maxL := lce[i-1][j-1]
			if m := n + 1 - i; m < maxL {
				maxL = m
			}
			if m := n + 1 - j; m < maxL {
				maxL = m
			}
			for l := 0; l <= maxL; l++ {
				t := make(span.Tuple, 2)
				t[xi] = span.Span{Start: i, End: i + l}
				t[1-xi] = span.Span{Start: j, End: j + l}
				r.Add(t)
			}
		}
	}
	return r
}

func atomAutos(atoms []*Atom) []*vsa.VSA {
	out := make([]*vsa.VSA, len(atoms))
	for i, a := range atoms {
		out[i] = a.Auto
	}
	return out
}

// CompileUCQ performs the static automata-plan compilation of a UCQ without
// string equalities: compile every disjunct (joins + projection) and union
// them (Lemma 3.9). Disjuncts with equalities make Compile fail; use
// Enumerate, which applies them at runtime.
func (u *UCQ) Compile() (*vsa.VSA, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	autos := make([]*vsa.VSA, len(u.Disjuncts))
	for i, q := range u.Disjuncts {
		if len(q.Equalities) > 0 {
			return nil, fmt.Errorf("core: disjunct %d has string equalities; they compile only per input string (Thm 5.4)", i)
		}
		// Project every disjunct onto the common output schema so the union
		// is over identical variable sets.
		a, err := q.withProjection().Compile()
		if err != nil {
			return nil, err
		}
		autos[i] = a
	}
	if len(autos) == 1 {
		return autos[0], nil
	}
	return vsa.Union(autos...)
}

// withProjection returns the CQ with an explicit projection onto OutVars.
func (q *CQ) withProjection() *CQ {
	if q.Projection != nil {
		return q
	}
	cp := *q
	cp.Projection = q.OutVars()
	return &cp
}

// Enumerate evaluates the UCQ. With the automata strategy the whole union
// is compiled into a single vset-automaton (per-string equalities included)
// and enumerated with polynomial delay — duplicates across disjuncts are
// eliminated inherently. The canonical strategy unions materialized
// disjunct results.
func (u *UCQ) Enumerate(s string, opts Options) (Iterator, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	strat := opts.Strategy
	if strat == Auto {
		strat = Canonical
		for _, q := range u.Disjuncts {
			if q.pick(opts) == Automata {
				strat = Automata
				break
			}
		}
	}
	if strat == Canonical {
		out := rel.NewRelation(u.OutVars())
		for _, q := range u.Disjuncts {
			r, err := q.Eval(s, Options{Strategy: Canonical, PolyBoundVarLimit: opts.PolyBoundVarLimit})
			if err != nil {
				return nil, err
			}
			for _, t := range r.Tuples {
				out.Add(t)
			}
		}
		out.Sort()
		return &sliceIter{vars: out.Vars, tuples: out.Tuples}, nil
	}
	// Automata: compile each disjunct with runtime equalities, then union.
	autos := make([]*vsa.VSA, len(u.Disjuncts))
	for i, q := range u.Disjuncts {
		joined, err := q.JoinAtoms()
		if err != nil {
			return nil, err
		}
		if joined, err = strequal.Apply(joined, s, q.Equalities); err != nil {
			return nil, err
		}
		if autos[i], err = vsa.Project(joined, q.OutVars()); err != nil {
			return nil, err
		}
	}
	union := autos[0]
	if len(autos) > 1 {
		var err error
		union, err = vsa.Union(autos...)
		if err != nil {
			return nil, err
		}
	}
	// Per-document union assembly, like EnumerateJoined: single-use.
	return enum.PrepareOnce(union, s)
}

// Eval evaluates the UCQ and materializes the result.
func (u *UCQ) Eval(s string, opts Options) (*rel.Relation, error) {
	it, err := u.Enumerate(s, opts)
	if err != nil {
		return nil, err
	}
	return Drain(it), nil
}

// Plan reports the strategy Enumerate will use for these options — Auto
// resolved against the paper's tractability conditions. Exposed so tools
// and tests can inspect planning decisions.
func (q *CQ) Plan(opts Options) Strategy {
	if opts.Strategy != Auto {
		return opts.Strategy
	}
	return q.pick(opts)
}
