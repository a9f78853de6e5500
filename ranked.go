package spanjoin

import (
	"context"
	"math/big"
	"math/rand"
	"strconv"

	"spanjoin/internal/core"
	"spanjoin/internal/enum"
	"spanjoin/internal/ranked"
	"spanjoin/internal/span"
)

// MatchCount is an exact result count. Result sets can be exponential in
// the document (and, corpus-wide, astronomically large), so the count
// carries a uint64 fast path with an exact big.Int escape beyond 2^64.
// The zero value is 0.
type MatchCount struct {
	u uint64
	b *big.Int // non-nil iff the value does not fit in a uint64
}

// newMatchCount converts an internal ranked count.
func newMatchCount(c ranked.Count) MatchCount {
	if u, ok := c.Uint64(); ok {
		return MatchCount{u: u}
	}
	return MatchCount{b: c.BigInt()}
}

// Uint64 returns the count and whether it fits in a uint64.
func (c MatchCount) Uint64() (uint64, bool) { return c.u, c.b == nil }

// BigInt returns the exact count as a freshly allocated big.Int.
func (c MatchCount) BigInt() *big.Int {
	if c.b != nil {
		return new(big.Int).Set(c.b)
	}
	return new(big.Int).SetUint64(c.u)
}

// IsZero reports whether the count is 0.
func (c MatchCount) IsZero() bool { return c.b == nil && c.u == 0 }

// String renders the exact count in decimal (also a valid JSON number).
func (c MatchCount) String() string {
	if c.b != nil {
		return c.b.String()
	}
	return strconv.FormatUint(c.u, 10)
}

// Count returns the exact number of matches of the spanner on doc without
// enumerating them: one layered-graph build plus the ranked path-count DP
// (internal/ranked) — time independent of the result count, which Eval
// would pay in full. WithTimeout bounds the graph build, the document-
// length-dependent part (the ctxthread contract for counting entry
// points); an interrupted build reports context.DeadlineExceeded rather
// than a silent zero.
func (s *Spanner) Count(doc string, opts ...Option) (MatchCount, error) {
	r, err := s.rankedOpts(doc, buildOptions(opts))
	if err != nil {
		return MatchCount{}, err
	}
	return r.Count(), nil
}

// Sample returns k matches drawn i.i.d. uniformly from the result set on
// doc (with replacement) without enumerating it; nil when there are no
// matches. Uniformity is exact at any result-set size, including counts
// beyond uint64. WithTimeout bounds the underlying graph build, as for
// Count.
func (s *Spanner) Sample(doc string, rng *rand.Rand, k int, opts ...Option) ([]Match, error) {
	r, err := s.rankedOpts(doc, buildOptions(opts))
	if err != nil {
		return nil, err
	}
	return r.Sample(rng, k), nil
}

// Ranked is a ranked-access view of one spanner evaluation: exact
// counting, direct access to the i-th match in the enumeration's
// canonical radix order, uniform sampling, and offset/limit pagination —
// none of which drains the result set. The underlying graph and DP are
// built once by Spanner.Ranked and shared by every call. A Ranked is not
// safe for concurrent use; open one per goroutine.
type Ranked struct {
	e    *enum.Enumerator // nil when the prefilter proved emptiness
	vars span.VarList
	doc  string
	wbuf []int32
}

// Ranked preprocesses doc for ranked access. The cost is one layered-
// graph build plus one path-count DP — independent of how many matches
// there are; the spanner's compiled plan is memoized as usual.
func (s *Spanner) Ranked(doc string) (*Ranked, error) {
	return s.rankedCtx(context.Background(), doc)
}

// rankedOpts is Ranked with WithTimeout applied: the timeout interrupts
// the layered-graph build (its cost is document-length dependent; the DP
// that follows is not) and surfaces as the context's DeadlineExceeded
// instead of an empty view.
func (s *Spanner) rankedOpts(doc string, o core.Options) (*Ranked, error) {
	ctx, cancel := withTimeout(context.Background(), o)
	defer cancel()
	return s.rankedCtx(ctx, doc)
}

// rankedCtx is the ranked view of the single-document opener; ctx bounds
// the graph build only.
func (s *Spanner) rankedCtx(ctx context.Context, doc string) (*Ranked, error) {
	e, err := s.open(ctx, doc, nil)
	if err != nil {
		return nil, err
	}
	return &Ranked{e: e, vars: s.auto.Vars, doc: doc}, nil
}

// Count returns the exact number of matches in O(1) after the view's
// one-time DP.
func (r *Ranked) Count() MatchCount {
	if r.e == nil {
		return MatchCount{}
	}
	return newMatchCount(r.e.Rank().Count())
}

// ResultAt returns the i-th match (0-based) of the enumeration's
// deterministic order via one weighted DAG descent — cost independent of
// i; ok is false when i ≥ Count. For result sets larger than 2^64, ranks
// past uint64 are reachable with ResultAtBig.
func (r *Ranked) ResultAt(i uint64) (Match, bool) {
	if r.e == nil {
		return Match{}, false
	}
	w, ok := r.e.Rank().WordAt(i, r.wbuf)
	if !ok {
		return Match{}, false
	}
	r.wbuf = w
	return Match{vars: r.vars, tuple: r.e.DecodeLetters(w), doc: r.doc}, true
}

// ResultAtBig is ResultAt for arbitrary-precision ranks: on result sets
// beyond 2^64 every rank below Count stays addressable. i must be
// non-negative and is not modified; ok is false when i ≥ Count.
func (r *Ranked) ResultAtBig(i *big.Int) (Match, bool) {
	if r.e == nil {
		return Match{}, false
	}
	w, ok := r.e.Rank().WordAtBig(i, r.wbuf)
	if !ok {
		return Match{}, false
	}
	r.wbuf = w
	return Match{vars: r.vars, tuple: r.e.DecodeLetters(w), doc: r.doc}, true
}

// Sample returns k matches drawn i.i.d. uniformly from the result set
// (with replacement); nil when there are no matches or k ≤ 0.
func (r *Ranked) Sample(rng *rand.Rand, k int) []Match {
	if r.e == nil || k <= 0 {
		return nil
	}
	rk := r.e.Rank()
	out := make([]Match, 0, k)
	for i := 0; i < k; i++ {
		w, ok := rk.SampleWord(rng, r.wbuf)
		if !ok {
			return nil
		}
		r.wbuf = w
		out = append(out, Match{vars: r.vars, tuple: r.e.DecodeLetters(w), doc: r.doc})
	}
	return out
}

// Page returns up to limit matches starting at offset, in enumeration
// order: one DAG descent positions the cursor, then limit Next steps
// stream the page — a page deep in the result set does not pay for the
// matches before it. Pages may be requested in any order.
func (r *Ranked) Page(offset uint64, limit int) []Match {
	if r.e == nil || limit <= 0 {
		return nil
	}
	w, ok := r.e.Rank().WordAt(offset, r.wbuf)
	if !ok {
		return nil
	}
	r.wbuf = w
	if !r.e.SeekLetters(w) {
		return nil
	}
	out := make([]Match, 0, limit)
	for len(out) < limit {
		t, ok := r.e.Next()
		if !ok {
			break
		}
		out = append(out, Match{vars: r.vars, tuple: t, doc: r.doc})
	}
	return out
}

// skipStepThreshold is the skip depth below which stepping the cursor
// beats building the ranked DP: a shallow skip costs a few polynomial
// Next steps, while the DP's determinization is worst-case exponential
// in the automaton size. Once the rank is already memoized (a prior
// Count, Skip or ranked call), the descent is always used.
const skipStepThreshold = 16

// Skip advances past the next n matches without materializing them,
// returning how many were actually skipped (less than n only when the
// result set ends first, or the stream's context is done). On
// enumerator-backed streams (Spanner.Iterate and IterateCtx,
// Stream.Iterate, automata-plan queries) a deep skip is one ranked DAG
// descent — cost independent of n; other iterators (canonical query
// plans, Difference) fall back to n steps, polling the context like Next.
// On result sets larger than 2^64, skips cumulating past rank 2^64-1 are
// refused (Skip returns 0 and the cursor stays put): the stream cursor
// addresses uint64 ranks — use Ranked.ResultAtBig with explicit
// arbitrary-precision indices for exact access beyond that.
func (ms *Matches) Skip(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	ms.poll()
	if e, ok := ms.it.(*enum.Enumerator); ok && (n > skipStepThreshold || e.RankBuilt()) {
		r := e.Rank()
		target, wrapped := ms.consumed+n, ms.consumed+n < ms.consumed
		if total, fits := r.Count().Uint64(); fits && (wrapped || target >= total) {
			skipped := total - ms.consumed
			ms.consumed = total
			ms.it = emptyIter{}
			return skipped
		}
		if wrapped {
			// A big result set and a target past rank 2^64-1: refuse
			// rather than reposition to (and misreport) a clamped rank.
			return 0
		}
		if w, ok := r.WordAt(target, nil); ok && e.SeekLetters(w) {
			ms.consumed = target
			return n
		}
		// Unreachable on a consistent rank — but a failed SeekLetters
		// leaves the cursor unspecified, so fail safe rather than step a
		// possibly corrupted enumeration.
		ms.it = emptyIter{}
		return 0
	}
	var k uint64
	for k < n {
		if _, ok := ms.step(); !ok {
			break
		}
		k++
	}
	return k
}
