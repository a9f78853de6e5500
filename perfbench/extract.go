package main

import (
	"context"
	"math/rand"
	"time"

	"spanjoin"
	"spanjoin/internal/workload"
)

// extract models a batch extraction job: one caller drains whole result
// streams, waiting for each. The dense search and the intro query share
// one cached plan each, so graph build, Next and result delivery do the
// work; the equality query takes the per-document Thm 5.4 path over a
// small slice of one-sentence documents.
type extractSys struct {
	cfg   config
	main  *spanjoin.Corpus
	ids   []spanjoin.DocID
	docs  []string
	eq    *spanjoin.Corpus
	eqIDs []spanjoin.DocID
	eqTxt []string
	intro *spanjoin.Query
	eqQ   *spanjoin.Query
	short string
	rng   *rand.Rand
	want  map[string]*expect
}

func runExtract(cfg config) (*report, error) {
	return runClosed(cfg, func() (*extractSys, error) { return buildExtract(cfg) }, (*extractSys).reference,
		func(s *extractSys) probeInputs {
			return probeInputs{docs: s.docs, eqDocs: s.eqTxt, corpus: s.main, patterns: []string{densePattern}}
		})
}

// buildExtract generates the inputs, ingests them and warms every query
// up once.
func buildExtract(cfg config) (*extractSys, error) {
	r := workload.Rand(cfg.seed)
	s := &extractSys{
		cfg:   cfg,
		main:  spanjoin.NewCorpus(spanjoin.WithIndex()),
		eq:    spanjoin.NewCorpus(spanjoin.WithIndex()),
		docs:  corpusDocs(r, cfg.sized(2000, 20)),
		eqTxt: eqDocs(r, cfg.sized(40, 8)),
		short: shortIntroDoc(r),
		rng:   rand.New(rand.NewSource(cfg.seed + 1)),
	}
	s.ids = s.main.AddAll(s.docs...)
	s.eqIDs = s.eq.AddAll(s.eqTxt...)
	var err error
	if s.intro, err = introQuery(""); err != nil {
		return nil, err
	}
	if s.eqQ, err = eqQuery(); err != nil {
		return nil, err
	}
	for _, kind := range []string{"dense", "intro", "eq"} {
		if _, _, _, err := s.stream(context.Background(), kind, time.Now()); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *extractSys) close() {}

func (s *extractSys) corpus() *spanjoin.Corpus { return s.main }

// mix issues the dense search four times in six, so the warm median (at
// about the dense drains' first quartile) and 90th percentile both land
// inside the dense drains rather than on a boundary between two queries.
func (s *extractSys) mix() []string {
	return []string{"dense", "dense", "intro", "dense", "dense", "eq"}
}

// reference computes every expected answer document by document and
// cross-checks the engine's other paths against it.
func (s *extractSys) reference(rep *report) error {
	var err error
	s.want = map[string]*expect{}
	if s.want["dense"], err = refSpanner(densePattern, s.ids, s.docs); err != nil {
		return err
	}
	if s.want["intro"], err = refQuery(s.intro, s.ids, s.docs, []string{"Belgium", "police"}, spanjoin.WithStrategy(spanjoin.StrategyAutomata)); err != nil {
		return err
	}
	if s.want["eq"], err = refQuery(s.eqQ, s.eqIDs, s.eqTxt, nil); err != nil {
		return err
	}
	s.want["dense"].skew(s.cfg.skew)

	n, err := s.main.CountSearch(context.Background(), densePattern)
	if err != nil {
		return err
	}
	got, _ := n.Uint64()
	rep.verify(got == uint64(len(s.want["dense"].rows)), "CountSearch %d, per-document Eval %d", got, len(s.want["dense"].rows))

	// The intro query through the corpus (one shared Thm 3.11 plan) must
	// equal the canonical relational strategy on a short document.
	one := spanjoin.NewCorpus()
	ids := one.AddAll(s.short)
	canon, err := refQuery(s.intro, ids, []string{s.short}, nil, spanjoin.WithStrategy(spanjoin.StrategyCanonical))
	if err != nil {
		return err
	}
	m, err := one.EvalQuery(context.Background(), s.intro)
	if err != nil {
		return err
	}
	var rows []string
	for {
		cm, ok := m.Next()
		if !ok {
			break
		}
		rows = append(rows, matchKey(cm.Doc, cm.Match))
	}
	if err := m.Err(); err != nil {
		return err
	}
	rep.verify(sameRows(rows, canon.rows) && len(rows) > 0, "intro query: corpus %v, canonical %v", rows, canon.rows)
	return nil
}

// stream runs one query over its corpus and drains it, returning the row
// count, the row digest and the time to the first row.
func (s *extractSys) stream(ctx context.Context, kind string, t0 time.Time) (n int, sum uint64, first time.Duration, err error) {
	var m *spanjoin.CorpusMatches
	call, end := child(ctx, "corpus.call")
	switch kind {
	case "dense":
		m, err = s.main.EvalSearch(call, densePattern)
	case "intro":
		m, err = s.main.EvalQuery(call, s.intro)
	case "eq":
		m, err = s.eq.EvalQuery(call, s.eqQ)
	}
	end()
	if err != nil {
		return 0, 0, 0, err
	}
	return drain(ctx, m, t0)
}

// drain reads a corpus stream to its end.
func drain(ctx context.Context, m *spanjoin.CorpusMatches, t0 time.Time) (n int, sum uint64, first time.Duration, err error) {
	defer m.Close()
	_, end := child(ctx, "corpus.drain")
	defer end()
	vars := sortedVars(m.Vars())
	for {
		cm, ok := m.Next()
		if !ok {
			break
		}
		if n == 0 {
			first = time.Since(t0)
		}
		n++
		sum += rowSum(cm.Doc, cm.Match, vars)
	}
	if n == 0 {
		first = time.Since(t0)
	}
	return n, sum, first, m.Err()
}

func (s *extractSys) warm(ctx context.Context, kind string) (time.Duration, error) {
	n, sum, first, err := s.stream(ctx, kind, time.Now())
	if err != nil {
		return 0, err
	}
	return first, s.want[kind].check(kind, n, sum)
}

// check compares a drained stream with the expectation.
func (x *expect) check(kind string, n int, sum uint64) error {
	if n != len(x.rows) || sum != x.sum {
		return mismatchf("%s: %d rows (digest %x), want %d (digest %x)", kind, n, sum, len(x.rows), x.sum)
	}
	return nil
}

// cold runs the intro query from a freshly built Query, whose join and
// plan nothing has compiled yet.
func (s *extractSys) cold(ctx context.Context) error {
	q, err := introQuery(token(s.rng))
	if err != nil {
		return err
	}
	m, err := s.main.EvalQuery(ctx, q)
	if err != nil {
		return err
	}
	n, sum, _, err := drain(ctx, m, time.Now())
	if err != nil {
		return err
	}
	return s.want["intro"].check("cold intro", n, sum)
}
