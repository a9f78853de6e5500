package main

import (
	"context"
	"math/rand"
	"time"

	"spanjoin"
	"spanjoin/internal/workload"
)

// pageSize is the window of every page and the size of every sample.
const pageSize = 16

// rank models an interactive client of the ranked API: one caller counts,
// pages at random offsets, follows cursors and samples, over a dense and
// a small-output pattern. Every operation pays a graph build per document
// plus the ranked DP and delivers no stream.
type rankSys struct {
	cfg  config
	c    *spanjoin.Corpus
	ids  []spanjoin.DocID
	docs []string
	rng  *rand.Rand
	want map[string]*expect
	// next is each pattern's offset for the next cursor page: the page
	// after the last one served.
	next map[string]uint64
}

func runRank(cfg config) (*report, error) {
	return runClosed(cfg, func() (*rankSys, error) { return buildRank(cfg) }, (*rankSys).reference,
		func(s *rankSys) probeInputs {
			return probeInputs{docs: s.docs, corpus: s.c, patterns: []string{densePattern, smallPattern}}
		})
}

func buildRank(cfg config) (*rankSys, error) {
	r := workload.Rand(cfg.seed)
	s := &rankSys{
		cfg:  cfg,
		c:    spanjoin.NewCorpus(spanjoin.WithIndex()),
		docs: corpusDocs(r, cfg.sized(1000, 20)),
		rng:  rand.New(rand.NewSource(cfg.seed + 1)),
		next: map[string]uint64{},
	}
	s.ids = s.c.AddAll(s.docs...)
	for _, p := range readPatterns {
		if _, err := s.c.CountSearch(context.Background(), p); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *rankSys) close() {}

func (s *rankSys) corpus() *spanjoin.Corpus { return s.c }

// mix issues the dense pattern nine times in ten, so the median lands
// inside the dense operations rather than between the two patterns.
func (s *rankSys) mix() []string {
	dense := []string{"count.dense", "page.dense", "cursor.dense", "sample.dense", "page.dense", "cursor.dense", "count.dense", "sample.dense", "page.dense"}
	mix := append(append([]string(nil), dense...), "count.small")
	mix = append(append(mix, dense...), "page.small")
	return mix
}

func (s *rankSys) reference(rep *report) error {
	s.want = map[string]*expect{}
	for name, p := range readPatterns {
		x, err := refSpanner(p, s.ids, s.docs)
		if err != nil {
			return err
		}
		s.want[name] = x
	}
	s.want["dense"].skew(s.cfg.skew)
	return nil
}

func (s *rankSys) warm(ctx context.Context, kind string) (time.Duration, error) {
	t0 := time.Now()
	op, name := splitKind(kind)
	p, x := readPatterns[name], s.want[name]
	var err error
	switch op {
	case "count":
		var n spanjoin.MatchCount
		n, err = s.c.CountSearch(ctx, p)
		if err == nil {
			err = x.checkCount(kind, n)
		}
	case "page":
		off := uint64(s.rng.Int63n(int64(max(len(x.rows), 1))))
		var pg *spanjoin.Page
		pg, err = s.c.EvalSearchPage(ctx, p, off, pageSize)
		if err == nil {
			s.next[name] = off + pageSize
			err = x.checkPage(kind, off, pg)
		}
	case "cursor":
		off := s.next[name]
		var pg *spanjoin.Page
		pg, _, _, err = s.c.EvalCursor(ctx, spanjoin.Cursor{Mode: "search", Pattern: p, Offset: off}, pageSize)
		if err == nil {
			s.next[name] = off + pageSize
			err = x.checkPage(kind, off, pg)
		}
	case "sample":
		var ms []spanjoin.CorpusMatch
		ms, err = s.c.SampleSearch(ctx, p, rand.New(rand.NewSource(s.rng.Int63())), pageSize)
		if err == nil {
			err = x.checkSample(kind, ms)
		}
	}
	return time.Since(t0), err
}

func (s *rankSys) cold(ctx context.Context) error {
	n, err := s.c.CountSearch(ctx, coldPattern(s.rng))
	if err != nil {
		return err
	}
	return s.want["dense"].checkCount("cold count", n)
}

func splitKind(kind string) (op, pattern string) {
	for i := range kind {
		if kind[i] == '.' {
			return kind[:i], kind[i+1:]
		}
	}
	return kind, ""
}

func (x *expect) checkCount(kind string, n spanjoin.MatchCount) error {
	if got, ok := n.Uint64(); !ok || got != uint64(len(x.rows)) {
		return mismatchf("%s: count %s, want %d", kind, n, len(x.rows))
	}
	return nil
}

// window is the expected page [off, off+pageSize).
func (x *expect) window(off uint64) []string {
	lo := min(off, uint64(len(x.rows)))
	hi := min(off+pageSize, uint64(len(x.rows)))
	return x.rows[lo:hi]
}

func (x *expect) checkPage(kind string, off uint64, pg *spanjoin.Page) error {
	if err := x.checkCount(kind+" total", pg.Total); err != nil {
		return err
	}
	want := x.window(off)
	if len(pg.Matches) != len(want) {
		return mismatchf("%s at %d: %d rows, want %d", kind, off, len(pg.Matches), len(want))
	}
	for i, cm := range pg.Matches {
		if got := matchKey(cm.Doc, cm.Match); got != want[i] {
			return mismatchf("%s at %d: row %d is %s, want %s", kind, off, i, got, want[i])
		}
	}
	return nil
}

func (x *expect) checkSample(kind string, ms []spanjoin.CorpusMatch) error {
	if len(x.set) > 0 && len(ms) != pageSize {
		return mismatchf("%s: %d rows, want %d", kind, len(ms), pageSize)
	}
	for _, cm := range ms {
		if key := matchKey(cm.Doc, cm.Match); !x.set[key] {
			return mismatchf("%s: %s is not a result of its document", kind, key)
		}
	}
	return nil
}
