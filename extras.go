package spanjoin

import (
	"context"
	"fmt"
	"io"

	"spanjoin/internal/alphabet"
	"spanjoin/internal/prefilter"
	"spanjoin/internal/rgx"
	"spanjoin/internal/span"
	"spanjoin/internal/vsa"
)

// CompileSearch compiles a pattern for *searching*: the pattern may match
// anywhere in the document, as if wrapped in the paper's Σ*·α·Σ*. This is
// the common mode for extraction tasks, where Compile's whole-document
// semantics would require explicit `.*` padding.
func CompileSearch(pattern string) (*Spanner, error) {
	f, err := rgx.Parse(pattern)
	if err != nil {
		return nil, err
	}
	wrapped := rgx.NewFormula(rgx.Concat{Subs: []rgx.Node{
		rgx.Star{Sub: rgx.Class{C: alphabet.Any()}},
		f.Root,
		rgx.Star{Sub: rgx.Class{C: alphabet.Any()}},
	}})
	a, err := rgx.Compile(wrapped)
	if err != nil {
		return nil, err
	}
	return &Spanner{auto: a, req: prefilter.New(rgx.RequiredLiterals(f.Root)...)}, nil
}

// MustCompileSearch is CompileSearch for statically known patterns.
func MustCompileSearch(pattern string) *Spanner {
	s, err := CompileSearch(pattern)
	if err != nil {
		panic(err)
	}
	return s
}

// MatchesAt decides whether one specific assignment of spans is a result of
// the spanner on doc, in time O(n²·|doc|) independent of the result count
// (an application of the paper's configuration-sequence view, §4.1). The
// assignment must bind exactly the spanner's variables.
func (s *Spanner) MatchesAt(doc string, assignment map[string]Span) (bool, error) {
	vars := s.auto.Vars
	if len(assignment) != len(vars) {
		return false, fmt.Errorf("spanjoin: assignment binds %d variables, spanner has %v", len(assignment), vars)
	}
	t := make(span.Tuple, len(vars))
	for i, v := range vars {
		p, ok := assignment[v]
		if !ok {
			return false, fmt.Errorf("spanjoin: assignment missing variable %s", v)
		}
		t[i] = p
	}
	return vsa.AcceptsTuple(s.auto, doc, vars, t)
}

// EqualAll adds the k-ary string-equality selection ζ=_{x1,…,xk} as a chain
// of binary selections (§5.1 notes the rewriting): all named variables must
// span equal substrings.
func (b *QueryBuilder) EqualAll(vars ...string) *QueryBuilder {
	if b.err != nil {
		return b
	}
	if len(vars) < 2 {
		b.err = fmt.Errorf("spanjoin: EqualAll needs at least two variables")
		return b
	}
	for i := 0; i+1 < len(vars); i++ {
		b.Equal(vars[i], vars[i+1])
	}
	return b
}

// Count returns the exact number of results of the query on doc.
// Queries that share a plan (no string equalities, not forced canonical)
// count as their compiled spanner does — the ranked DP, no enumeration,
// cost independent of the result count; the rest (equality automata
// exist per document, Thm 5.4) drain the iterator. WithTimeout bounds
// either, as it does Spanner.Count.
func (q *Query) Count(doc string, opts ...Option) (MatchCount, error) {
	o := buildOptions(opts)
	if q.sharesPlan(o) {
		sp, err := q.spanner()
		if err != nil {
			return MatchCount{}, err
		}
		return sp.Count(doc, opts...)
	}
	ctx, cancel := withTimeout(context.Background(), o)
	defer cancel()
	ms, err := q.iterate(ctx, doc, o)
	if err != nil {
		return MatchCount{}, err
	}
	_, n, err := collect(ms, 0, false)
	return MatchCount{u: n}, err
}

// Difference returns the matches of a on doc that are not matches of b
// (the spanner difference [[a]](doc) \ [[b]](doc); the paper notes regular
// spanners are closed under difference, §2.2.4). Both spanners must have
// the same variable set. Each candidate is filtered with the O(n²·|doc|)
// membership test, so the stream has polynomial delay.
func Difference(a, b *Spanner, doc string) (*Matches, error) {
	if len(a.auto.Vars) != len(b.auto.Vars) || !a.auto.Vars.Equal(b.auto.Vars) {
		return nil, fmt.Errorf("spanjoin: difference requires identical variable sets, got %v and %v",
			a.auto.Vars, b.auto.Vars)
	}
	inner, err := a.Iterate(doc)
	if err != nil {
		return nil, err
	}
	bt := b.auto.Trim()
	if !bt.IsFunctional() {
		return nil, vsa.ErrNotFunctional
	}
	return &Matches{
		it:   &diffIter{inner: inner.it, b: bt, vars: a.auto.Vars, doc: doc},
		vars: a.auto.Vars,
		doc:  doc,
	}, nil
}

type diffIter struct {
	inner interface {
		Next() (span.Tuple, bool)
	}
	b    *vsa.VSA
	vars span.VarList
	doc  string
}

func (d *diffIter) Next() (span.Tuple, bool) {
	for {
		t, ok := d.inner.Next()
		if !ok {
			return nil, false
		}
		member, err := vsa.AcceptsTuple(d.b, d.doc, d.vars, t)
		if err != nil {
			return nil, false
		}
		if !member {
			return t, true
		}
	}
}

func (d *diffIter) Vars() span.VarList { return d.vars }

// Dot renders the spanner's automaton in Graphviz dot format.
func (s *Spanner) Dot(name string) string { return s.auto.Dot(name) }

// Save writes the compiled spanner to w in a stable text format, so that
// expensive compositions (joins of many atoms) can be cached and reloaded
// with Load.
func (s *Spanner) Save(w io.Writer) error { return s.auto.Encode(w) }

// Load reads a spanner previously written by Save. The automaton is
// verified to be functional before use.
func Load(r io.Reader) (*Spanner, error) {
	a, err := vsa.Decode(r)
	if err != nil {
		return nil, err
	}
	if !a.IsFunctional() {
		return nil, vsa.ErrNotFunctional
	}
	return &Spanner{auto: a}, nil
}
