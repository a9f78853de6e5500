package spanjoin

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/big"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"spanjoin/internal/corpus"
	"spanjoin/internal/ranked"
)

// count runs a target's counting sweep; perDoc additionally collects
// the non-zero per-document counts.
func (c *Corpus) count(ctx context.Context, t target, opts []Option, perDoc bool) (*corpus.CountResult, error) {
	if t.err != nil {
		return nil, t.err
	}
	return c.store.Count(ctx, t.Evaluator, c.evalOptions(t.req, buildOptions(opts)), perDoc)
}

// countTotal is a counting sweep's exact total.
func countTotal(res *corpus.CountResult, err error) (MatchCount, error) {
	if err != nil {
		return MatchCount{}, err
	}
	return newMatchCount(res.Total), nil
}

// Count compiles the pattern (through the corpus cache) and returns the
// exact number of matches across every document — with no enumeration:
// shard workers aggregate per-document ranked counts (one graph build
// per document, cost independent of its result count), and documents the
// prefilter or skip index excludes count as 0 without being visited.
func (c *Corpus) Count(ctx context.Context, pattern string, opts ...Option) (MatchCount, error) {
	return countTotal(c.count(ctx, c.pattern(ctx, "anchor", pattern), opts, false))
}

// CountSearch is Count with substring semantics (CompileSearch).
func (c *Corpus) CountSearch(ctx context.Context, pattern string, opts ...Option) (MatchCount, error) {
	return countTotal(c.count(ctx, c.pattern(ctx, "search", pattern), opts, false))
}

// CountSpanner is Count for a precompiled spanner (bypassing the cache).
// Counts honor WithTimeout and the corpus admission gate (shedding with
// ErrOverloaded); WithLimit and WithBudget apply to result streams only.
func (c *Corpus) CountSpanner(ctx context.Context, sp *Spanner, opts ...Option) (MatchCount, error) {
	return countTotal(c.count(ctx, c.spanner(ctx, sp), opts, false))
}

// CountAll is Count broken down by document: the exact per-document
// match counts, keyed by DocID. Documents without matches have no entry.
func (c *Corpus) CountAll(ctx context.Context, pattern string, opts ...Option) (map[DocID]MatchCount, error) {
	res, err := c.count(ctx, c.pattern(ctx, "anchor", pattern), opts, true)
	if err != nil {
		return nil, err
	}
	out := make(map[DocID]MatchCount, len(res.PerDoc))
	for _, dc := range res.PerDoc {
		out[dc.Doc] = newMatchCount(dc.N)
	}
	return out, nil
}

// CountQuery returns the exact corpus-wide result count of a conjunctive
// query. Equality-free queries not forced onto the canonical plan count
// through the shared compiled plan and the ranked DP (no enumeration
// anywhere); queries with string equalities or a forced canonical plan
// count by draining each document's per-document evaluation — still
// parallel and still prefiltered.
func (c *Corpus) CountQuery(ctx context.Context, q *Query, opts ...Option) (MatchCount, error) {
	return countTotal(c.count(ctx, c.query(ctx, q, opts), opts, false))
}

// Page is one deterministic page of a corpus evaluation: the window
// [offset, offset+limit) of the corpus-wide result sequence in ascending
// DocID order (each document's matches in the engine's radix order), the
// exact total, and the prefilter counters.
type Page struct {
	Matches []CorpusMatch
	Total   MatchCount
	Stats   EvalStats
}

// page serves one page of a plan-backed target's corpus-wide results.
// WithTimeout bounds both phases — the counting sweep and the page
// stream — via a derived context.
func (c *Corpus) page(ctx context.Context, t target, offset uint64, limit int, opts []Option) (*Page, error) {
	if t.err != nil {
		return nil, t.err
	}
	o := buildOptions(opts)
	ctx, cancel := withTimeout(ctx, o)
	defer cancel()
	o.Timeout = 0 // the derived context carries the deadline
	res, err := c.store.PagePlan(ctx, t.Plan, c.evalOptions(t.req, o), offset, limit)
	if err != nil {
		return nil, err
	}
	page := &Page{
		Matches: make([]CorpusMatch, 0, len(res.Matches)),
		Total:   newMatchCount(res.Total),
		Stats:   EvalStats{Scanned: res.Scanned, Skipped: res.Skipped, SkippedIndex: res.SkippedIndex},
	}
	var (
		lastID  DocID
		lastDoc string
		have    bool
	)
	for _, r := range res.Matches {
		if !have || r.Doc != lastID {
			lastDoc, _ = c.store.Get(r.Doc)
			lastID, have = r.Doc, true
		}
		page.Matches = append(page.Matches, CorpusMatch{
			Doc:   r.Doc,
			Match: Match{vars: t.vars, tuple: r.Tuple, doc: lastDoc},
		})
	}
	return page, nil
}

// EvalPage compiles the pattern (through the corpus cache) and serves
// one page of its corpus-wide results. The counting sweep runs through
// the shard workers in parallel — documents outside the window
// contribute one ranked count each, a graph build, never an enumeration
// — and the window itself is entered with a single DAG descent, so page
// N costs the same as page 0: offset does not buy offset Next calls.
// The exact Total rides along for pagination UIs.
func (c *Corpus) EvalPage(ctx context.Context, pattern string, offset uint64, limit int, opts ...Option) (*Page, error) {
	return c.page(ctx, c.pattern(ctx, "anchor", pattern), offset, limit, opts)
}

// EvalSearchPage is EvalPage with substring semantics (CompileSearch).
func (c *Corpus) EvalSearchPage(ctx context.Context, pattern string, offset uint64, limit int, opts ...Option) (*Page, error) {
	return c.page(ctx, c.pattern(ctx, "search", pattern), offset, limit, opts)
}

// EvalSpannerPage is EvalPage for a precompiled spanner. WithTimeout
// bounds both phases — the counting sweep and the page stream — via a
// derived context; WithLimit/WithBudget do not apply (the page's window
// is the limit).
func (c *Corpus) EvalSpannerPage(ctx context.Context, sp *Spanner, offset uint64, limit int, opts ...Option) (*Page, error) {
	return c.page(ctx, c.spanner(ctx, sp), offset, limit, opts)
}

// sample draws k matches uniformly from a plan-backed target's
// corpus-wide result set: one counting sweep weights the documents, then
// each draw is a weighted document pick plus one ranked DAG descent.
// Ranked views built for the draws are cached per document, so k draws
// cost at most min(k, matched docs) graph builds on top of the sweep.
func (c *Corpus) sample(ctx context.Context, t target, rng *rand.Rand, k int, opts []Option) ([]CorpusMatch, error) {
	if t.err != nil || k <= 0 {
		return nil, t.err
	}
	res, err := c.count(ctx, t, opts, true)
	if err != nil {
		return nil, err
	}
	if res.Total.IsZero() {
		return nil, nil
	}
	// Cumulative per-doc counts in ascending DocID order (PerDoc is
	// sorted); big.Int throughout so totals past 2^64 keep exact weights.
	cum := make([]*big.Int, len(res.PerDoc))
	running := new(big.Int)
	for i, dc := range res.PerDoc {
		running = new(big.Int).Add(running, dc.N.BigInt())
		cum[i] = running
	}
	total := cum[len(cum)-1]
	views := make(map[DocID]*Ranked, k)
	out := make([]CorpusMatch, 0, k)
	for i := 0; i < k; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r := ranked.RandBelow(rng, total)
		j := sort.Search(len(cum), func(j int) bool { return cum[j].Cmp(r) > 0 })
		dc := res.PerDoc[j]
		within := new(big.Int).Sub(r, new(big.Int).Sub(cum[j], dc.N.BigInt()))
		rk := views[dc.Doc]
		if rk == nil {
			doc, ok := c.store.Get(dc.Doc)
			if !ok {
				return nil, fmt.Errorf("spanjoin: document %d vanished mid-sample", dc.Doc)
			}
			if rk, err = t.sp.rankedCtx(ctx, doc); err != nil {
				return nil, err
			}
			views[dc.Doc] = rk
		}
		m, ok := rk.ResultAtBig(within)
		if !ok {
			return nil, fmt.Errorf("spanjoin: rank %v inconsistent with count of document %d", within, dc.Doc)
		}
		out = append(out, CorpusMatch{Doc: dc.Doc, Match: m})
	}
	return out, nil
}

// Sample draws k matches i.i.d. uniformly (with replacement) from the
// corpus-wide result set of the pattern, compiled through the corpus
// cache. Uniformity is exact at any result-set size, including corpus
// totals beyond 2^64: one parallel counting sweep weights the documents,
// then each draw is a weighted document pick plus one ranked DAG descent
// — no enumeration anywhere. Returns nil when there are no matches.
func (c *Corpus) Sample(ctx context.Context, pattern string, rng *rand.Rand, k int, opts ...Option) ([]CorpusMatch, error) {
	return c.sample(ctx, c.pattern(ctx, "anchor", pattern), rng, k, opts)
}

// SampleSearch is Sample with substring semantics (CompileSearch).
func (c *Corpus) SampleSearch(ctx context.Context, pattern string, rng *rand.Rand, k int, opts ...Option) ([]CorpusMatch, error) {
	return c.sample(ctx, c.pattern(ctx, "search", pattern), rng, k, opts)
}

// SampleSpanner is Sample for a precompiled spanner. The counting sweep
// honors WithTimeout and the admission gate; ranked views built for the
// draws are cached per document, so k draws cost at most min(k, matched
// docs) graph builds on top of the sweep.
func (c *Corpus) SampleSpanner(ctx context.Context, sp *Spanner, rng *rand.Rand, k int, opts ...Option) ([]CorpusMatch, error) {
	return c.sample(ctx, c.spanner(ctx, sp), rng, k, opts)
}

// Cursor is a resumable position in a paginated corpus evaluation: the
// compilation mode ("anchor" or "search"), the pattern, and the rank of
// the next result to serve. Token/ParseCursor round-trip it through an
// opaque URL-safe string, so services can hand deep-pagination state to
// clients without keeping any per-client state server-side — resuming a
// cursor is one EvalSpannerPage call, O(1) per page at any depth.
type Cursor struct {
	Mode    string // "anchor" (Compile, also "") or "search" (CompileSearch)
	Pattern string
	Offset  uint64
}

// ErrBadCursor is returned by ParseCursor for tokens that are truncated,
// corrupted, or not produced by Cursor.Token. Detect with errors.Is.
var ErrBadCursor = errors.New("spanjoin: malformed page cursor")

// cursorPrefix versions the token format; unknown prefixes are rejected
// rather than misparsed.
const cursorPrefix = "sj1."

// cursorPayload is the token's wire form. The checksum rejects tokens
// corrupted in transit (or hand-edited) before they can misaddress a
// window.
type cursorPayload struct {
	Mode    string `json:"m"`
	Pattern string `json:"p"`
	Offset  uint64 `json:"o"`
	Sum     uint32 `json:"c"`
}

// sum is the cursor's integrity checksum over every addressing field.
func (c Cursor) sum() uint32 {
	return crc32.ChecksumIEEE([]byte(c.Mode + "\x00" + c.Pattern + "\x00" + strconv.FormatUint(c.Offset, 10)))
}

// Token encodes the cursor as an opaque URL-safe string.
func (c Cursor) Token() string {
	b, err := json.Marshal(cursorPayload{Mode: c.Mode, Pattern: c.Pattern, Offset: c.Offset, Sum: c.sum()})
	if err != nil {
		// Marshaling strings and integers cannot fail.
		panic(err)
	}
	return cursorPrefix + base64.RawURLEncoding.EncodeToString(b)
}

// ParseCursor decodes a token produced by Token, rejecting anything
// malformed or checksum-inconsistent with ErrBadCursor.
func ParseCursor(tok string) (Cursor, error) {
	rest, ok := strings.CutPrefix(tok, cursorPrefix)
	if !ok {
		return Cursor{}, fmt.Errorf("%w: missing %q prefix", ErrBadCursor, cursorPrefix)
	}
	raw, err := base64.RawURLEncoding.DecodeString(rest)
	if err != nil {
		return Cursor{}, fmt.Errorf("%w: %v", ErrBadCursor, err)
	}
	var p cursorPayload
	if err := json.Unmarshal(raw, &p); err != nil {
		return Cursor{}, fmt.Errorf("%w: %v", ErrBadCursor, err)
	}
	c := Cursor{Mode: p.Mode, Pattern: p.Pattern, Offset: p.Offset}
	if _, _, ok := compileMode(c.Mode); !ok {
		return Cursor{}, fmt.Errorf("%w: unknown mode %q", ErrBadCursor, p.Mode)
	}
	if c.sum() != p.Sum {
		return Cursor{}, fmt.Errorf("%w: checksum mismatch", ErrBadCursor)
	}
	return c, nil
}

// Advance returns the cursor positioned after a page that delivered n
// results. The addition saturates at the maximum uint64 rank instead of
// wrapping, so a cursor advanced past the end of the addressable space
// stays terminal — it pages out as exhausted, never back to rank 0.
func (c Cursor) Advance(n uint64) Cursor {
	if c.Offset+n < c.Offset {
		c.Offset = math.MaxUint64
	} else {
		c.Offset += n
	}
	return c
}

// EvalCursor serves the page a cursor addresses and returns the advanced
// cursor for the page after it; more is false when the result sequence is
// exhausted at (or before) the returned cursor — including the saturation
// boundary, where ranks past 2^64-1 exist but are not uint64-addressable.
// The pattern compiles through the corpus cache under the cursor's mode,
// so resumed cursors share the original query's compiled plan.
func (c *Corpus) EvalCursor(ctx context.Context, cur Cursor, limit int, opts ...Option) (page *Page, next Cursor, more bool, err error) {
	// The advanced cursor carries the normalised mode, so its token parses.
	cur.Mode, _, _ = compileMode(cur.Mode)
	page, err = c.page(ctx, c.pattern(ctx, cur.Mode, cur.Pattern), cur.Offset, limit, opts)
	if err != nil {
		return nil, cur, false, err
	}
	next = cur.Advance(uint64(len(page.Matches)))
	// A short page means the window ran off the end; a saturated advance
	// means the rest of the sequence is beyond uint64 addressing.
	if len(page.Matches) == limit && next.Offset > cur.Offset && next.Offset < math.MaxUint64 {
		if t, fits := page.Total.Uint64(); !fits || next.Offset < t {
			more = true
		}
	}
	return page, next, more, nil
}
