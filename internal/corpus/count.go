package corpus

import (
	"context"
	"sort"
	"time"

	"spanjoin/internal/enum"
	"spanjoin/internal/obs"
	"spanjoin/internal/ranked"
	"spanjoin/internal/resilience"
)

// DocCount is one document's exact result count.
type DocCount struct {
	Doc DocID
	N   ranked.Count
}

// CountResult aggregates a corpus-wide count.
type CountResult struct {
	// Total is the exact number of result tuples across the snapshot.
	Total ranked.Count
	// PerDoc lists the documents with at least one result, ascending by
	// DocID; nil unless requested.
	PerDoc []DocCount
	// Scanned/Skipped/SkippedIndex mirror Results' prefilter counters:
	// prefiltered documents contribute 0 without being visited.
	Scanned, Skipped, SkippedIndex uint64
}

// Count counts ev's results over every document of the snapshot. A
// plan-backed evaluator counts without enumerating anything: shard
// workers run the ranked path-count DP per document (one graph build
// each, cost independent of that document's result count) and aggregate;
// a per-document evaluator drains each document's DocEval —
// output-proportional per document, but still parallel and still
// prefiltered. Documents the prefilter excludes — skip-index
// non-candidates and literal-scan failures — count as 0 without being
// visited. perDoc additionally collects the non-zero per-document counts.
// Counts pass the same admission gate as streams; opt's Limit and Budget
// meter delivered results and do not apply. A trace carried on ctx
// receives the count stage with the scanned-document tally.
//
//spanjoin:stage count
func (s *Store) Count(ctx context.Context, ev Evaluator, opt EvalOptions, perDoc bool) (res *CountResult, err error) {
	defer resilience.RecoverTo(&err)
	opt.Limit, opt.Budget = 0, 0
	var sw sweep
	if err := s.start(ctx, &sw, opt, resilience.FailCountDoc); err != nil {
		return nil, err
	}
	defer sw.release()
	defer sw.cancel()
	// Each worker aggregates into its own part, merged once the pool is
	// done, so workers share nothing but the sweep's counters.
	type part struct {
		total ranked.Count
		docs  []DocCount
	}
	var parts []*part
	sweepStart := time.Now()
	wait, err := sw.run(opt.workers(), func(stop func() bool) docAction {
		count := ev.docCounter(stop)
		pt := &part{}
		parts = append(parts, pt)
		return func(id DocID, doc string) error {
			c, err := count(doc)
			if err != nil || c.IsZero() {
				return err
			}
			pt.total = pt.total.Add(c)
			if perDoc {
				pt.docs = append(pt.docs, DocCount{Doc: id, N: c})
			}
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	wait()
	d := time.Since(sweepStart)
	s.met.countDur.Observe(d)
	obs.FromContext(ctx).ObserveItems(obs.StageCount, d, int64(sw.scanned.Load()))
	sw.settle()
	if err := sw.Err(); err != nil {
		return nil, err
	}
	res = &CountResult{Scanned: sw.Scanned(), Skipped: sw.Skipped(), SkippedIndex: sw.SkippedIndex()}
	for _, pt := range parts {
		res.Total = res.Total.Add(pt.total)
		res.PerDoc = append(res.PerDoc, pt.docs...)
	}
	sort.Slice(res.PerDoc, func(i, j int) bool { return res.PerDoc[i].Doc < res.PerDoc[j].Doc })
	return res, nil
}

// PageResult is one deterministic page of a corpus evaluation.
type PageResult struct {
	// Matches is the window [offset, offset+limit) of the corpus-wide
	// result sequence ordered by ascending DocID, each document's results
	// in the engine's radix order.
	Matches []Result
	// Total is the exact corpus-wide result count.
	Total                          ranked.Count
	Scanned, Skipped, SkippedIndex uint64
}

// PagePlan serves offset/limit pagination over the snapshot in ascending
// DocID order, in two phases: the corpus-wide counting sweep runs through
// Count's shard workers (parallel, skip-index aware, no enumeration
// anywhere), then the window — located in the per-document prefix sums —
// is entered with a single DAG descent and streamed from only the
// documents it intersects. A page deep in the result sequence therefore
// costs the same as page 0 plus the parallel counting sweep, and the
// exact total rides along for free.
func (s *Store) PagePlan(ctx context.Context, p *enum.Plan, opt EvalOptions, offset uint64, limit int) (page *PageResult, err error) {
	defer resilience.RecoverTo(&err)
	cnt, err := s.Count(ctx, Evaluator{Plan: p}, opt, true)
	if err != nil {
		return nil, err
	}
	res := &PageResult{
		Total:        cnt.Total,
		Scanned:      cnt.Scanned,
		Skipped:      cnt.Skipped,
		SkippedIndex: cnt.SkippedIndex,
	}
	if limit <= 0 {
		return res, nil
	}
	// An offset at or past the total is an exhausted page — returned
	// before any per-document arithmetic, so boundary offsets (up to and
	// including math.MaxUint64, where offset+limit would wrap a uint64)
	// can never walk the subtraction loop into a wrapped window. Totals
	// beyond uint64 always have results at every uint64 offset.
	if u, fits := cnt.Total.Uint64(); fits && offset >= u {
		return res, nil
	}
	// PerDoc is ascending by DocID — exactly the page order. Documents
	// wholly before the window are subtracted from offset by count; the
	// first intersecting document is entered at rank offset.
	e := p.NewEnumerator()
	var wbuf []int32
	for _, dc := range cnt.PerDoc {
		if len(res.Matches) >= limit {
			break
		}
		if u, fits := dc.N.Uint64(); fits && offset >= u {
			offset -= u // the whole document precedes the window
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		doc, ok := s.Get(dc.Doc)
		if !ok {
			continue // unreachable: snapshot documents are immutable
		}
		e.Reset(doc)
		if offset > 0 {
			// Only the window's first document needs the rank descent;
			// later ones stream from their beginning.
			w, okW := e.Rank().WordAt(offset, wbuf)
			if !okW || !e.SeekLetters(w) {
				continue // unreachable on a consistent rank
			}
			wbuf = w
			offset = 0
		}
		for len(res.Matches) < limit {
			t, okT := e.Next()
			if !okT {
				break
			}
			res.Matches = append(res.Matches, Result{Doc: dc.Doc, Tuple: t})
		}
	}
	return res, nil
}
