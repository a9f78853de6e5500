package spanjoin_test

import (
	"context"
	"sort"
	"strings"
	"testing"

	"spanjoin"
	"spanjoin/internal/enum"
	"spanjoin/internal/oracle"
	"spanjoin/internal/rgx"
	"spanjoin/internal/span"
)

// oracleEval evaluates the pattern with the brute-force ref-word oracle.
func oracleEval(t *testing.T, pattern, doc string) []span.Tuple {
	t.Helper()
	f, err := rgx.Parse(pattern)
	if err != nil {
		t.Fatal(err)
	}
	return oracle.EvalFormula(f, doc)
}

// fuzzPatterns are small functional regex formulas over {a, b}; the fuzzer
// picks one by index so pattern choice stays in the corpus-minimizable
// input.
var fuzzPatterns = []string{
	`x{a+}`,
	`(a|b)*x{a+}(a|b)*`,
	`x{(a|b)*}`,
	`x{a*}y{b*}`,
	`(a|b)*x{a}y{b?}(a|b)*`,
	`x{a*}(a|b)*y{a*}`,
	`a*x{a*}a*`,
	`(a|b)*x{(a|b)+}(a|b)*`,
}

// fuzzDocs derives a small document set over {a, b} from raw fuzz bytes:
// '|' separates documents, every other byte maps onto a or b by parity.
// At most 8 documents of at most 12 bytes keep the reference evaluation
// cheap.
func fuzzDocs(blob string) []string {
	parts := strings.Split(blob, "|")
	if len(parts) > 8 {
		parts = parts[:8]
	}
	docs := make([]string, 0, len(parts))
	for _, p := range parts {
		if len(p) > 12 {
			p = p[:12]
		}
		b := []byte(p)
		for i := range b {
			if b[i]%2 == 0 {
				b[i] = 'a'
			} else {
				b[i] = 'b'
			}
		}
		docs = append(docs, string(b))
	}
	return docs
}

// FuzzCorpusVsEval is the differential harness for the corpus engine:
// random small patterns and document sets go through Corpus.Eval (sharded,
// pooled, streamed) and through per-document Spanner.Eval (the
// polynomial-delay reference, Theorem 3.3), and the match multisets must
// be identical per document — any lost, duplicated or misattributed
// result across the shard/worker/channel machinery fails.
func FuzzCorpusVsEval(f *testing.F) {
	f.Add(uint8(0), "aab|ba|abab")
	f.Add(uint8(1), "aaaa|b|")
	f.Add(uint8(3), "ab|aabb|bbaa|a")
	f.Add(uint8(5), "aaa")
	f.Add(uint8(7), "abab|baba|aa|bb|a|b||ab")
	f.Fuzz(func(t *testing.T, pi uint8, blob string) {
		pattern := fuzzPatterns[int(pi)%len(fuzzPatterns)]
		docs := fuzzDocs(blob)
		sp, err := spanjoin.Compile(pattern)
		if err != nil {
			t.Fatalf("fuzz pattern %q must compile: %v", pattern, err)
		}

		c := spanjoin.NewCorpus(spanjoin.WithShards(3), spanjoin.WithWorkers(2))
		ids := c.AddAll(docs...)
		ms, err := c.Eval(context.Background(), pattern)
		if err != nil {
			t.Fatal(err)
		}
		// spanlint/closecheck: release the stream's pool slot.
		defer ms.Close()
		got := make(map[spanjoin.DocID][]span.Tuple)
		for {
			m, ok := ms.Next()
			if !ok {
				break
			}
			got[m.Doc] = append(got[m.Doc], tupleOf(m.Match))
		}
		if err := ms.Err(); err != nil {
			t.Fatal(err)
		}

		// The skip index must be invisible in the results: same tuples per
		// document, same per-document order.
		ci := spanjoin.NewCorpus(spanjoin.WithShards(3), spanjoin.WithWorkers(2), spanjoin.WithIndex())
		idsIdx := ci.AddAll(docs...)
		msIdx, err := ci.Eval(context.Background(), pattern)
		if err != nil {
			t.Fatal(err)
		}
		// spanlint/closecheck: release the stream's pool slot.
		defer msIdx.Close()
		gotIdx := make(map[spanjoin.DocID][]span.Tuple)
		for {
			m, ok := msIdx.Next()
			if !ok {
				break
			}
			gotIdx[m.Doc] = append(gotIdx[m.Doc], tupleOf(m.Match))
		}
		if err := msIdx.Err(); err != nil {
			t.Fatal(err)
		}
		for i := range docs {
			a, b := got[ids[i]], gotIdx[idsIdx[i]]
			if len(a) != len(b) {
				t.Fatalf("pattern %q doc %q: unindexed %v, indexed %v", pattern, docs[i], a, b)
			}
			for k := range a {
				if a[k].Compare(b[k]) != 0 {
					t.Fatalf("pattern %q doc %q: index changed tuple %d: %v vs %v", pattern, docs[i], k, a[k], b[k])
				}
			}
		}
		st := msIdx.Stats()
		if st.Scanned+st.Skipped != uint64(len(docs)) {
			t.Fatalf("pattern %q: indexed stats %+v don't cover %d docs", pattern, st, len(docs))
		}

		// The corpus fan-out (and Spanner.Eval) run on the byte-class
		// compiled transition table; the preserved per-transition reference
		// build is the independent witness that the matrix sweep built the
		// same graphs. One reference enumerator, Reset per document — the
		// plan compiles once per fuzz input, not once per document.
		re, err := enum.PrepareOnce(rgx.MustCompilePattern(pattern), "")
		if err != nil {
			t.Fatal(err)
		}

		// Every other single-document entry must reproduce the Spanner.Eval
		// reference, in order: a Stream reused across the documents, an
		// IterateCtx drain, a full ranked page, Spanner.Count, and a
		// one-atom Query over the same spanner — evaluated on the automata
		// plan, since the canonical plan returns its relation sorted, a
		// different order.
		stream := sp.NewStream()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		q := spanjoin.NewQuery().AtomSpanner("atom", sp).MustBuild()

		wants := make([][]span.Tuple, len(docs))
		for i, doc := range docs {
			ref, err := sp.Eval(doc)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]span.Tuple, len(ref))
			for k, m := range ref {
				want[k] = tupleOf(m)
			}
			wants[i] = want
			sameInOrder := func(entry string, ms []spanjoin.Match) {
				t.Helper()
				if len(ms) != len(want) {
					t.Fatalf("pattern %q doc %q: %s has %d matches, Eval %d", pattern, doc, entry, len(ms), len(want))
				}
				for k := range want {
					if tupleOf(ms[k]).Compare(want[k]) != 0 {
						t.Fatalf("pattern %q doc %q: %s differs from Eval at %d", pattern, doc, entry, k)
					}
				}
			}
			sameCount := func(entry string, n spanjoin.MatchCount, err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				if u, ok := n.Uint64(); !ok || u != uint64(len(want)) {
					t.Fatalf("pattern %q doc %q: %s %v, Eval %d", pattern, doc, entry, n, len(want))
				}
			}
			streamed, err := stream.Eval(doc)
			if err != nil {
				t.Fatal(err)
			}
			sameInOrder("Stream.Eval", streamed)
			it, err := sp.IterateCtx(ctx, doc)
			if err != nil {
				t.Fatal(err)
			}
			var drained []spanjoin.Match
			for m, ok := it.Next(); ok; m, ok = it.Next() {
				drained = append(drained, m)
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
			sameInOrder("IterateCtx", drained)
			r, err := sp.Ranked(doc)
			if err != nil {
				t.Fatal(err)
			}
			sameInOrder("Ranked.Page", r.Page(0, len(want)))
			n, err := sp.Count(doc)
			sameCount("Spanner.Count", n, err)
			evaluated, err := q.Evaluate(doc, spanjoin.WithStrategy(spanjoin.StrategyAutomata))
			if err != nil {
				t.Fatal(err)
			}
			sameInOrder("Query.Evaluate", evaluated)
			n, err = q.Count(doc)
			sameCount("Query.Count", n, err)
			re.Reset(doc)
			if !oracle.EqualTupleSets(want, re.All()) {
				t.Fatalf("pattern %q doc %q: compiled-table path disagrees with per-transition reference",
					pattern, doc)
			}
			if !sameTupleMultiset(got[ids[i]], want) {
				t.Fatalf("pattern %q doc %q: corpus %v, per-doc eval %v",
					pattern, doc, got[ids[i]], want)
			}
			// The per-document stream must also preserve the engine's
			// deterministic radix order, not just the multiset.
			for k := range want {
				if got[ids[i]][k].Compare(want[k]) != 0 {
					t.Fatalf("pattern %q doc %q: order differs at %d", pattern, doc, k)
				}
			}
			// On tiny inputs, additionally pin both against the brute-force
			// ref-word oracle (§2.2 semantics, shares no code with either).
			if len(doc) <= 4 {
				if !oracle.EqualTupleSets(want, oracleEval(t, pattern, doc)) {
					t.Fatalf("pattern %q doc %q: engine disagrees with oracle", pattern, doc)
				}
			}
		}

		// The counting sweep against the same reference, with and without
		// the skip index: CountAll per document is the per-document Eval
		// count and Count their sum; EvalPage over the whole sequence is
		// the per-document lists concatenated in DocID order; and the
		// counting sweep (traced for Count, reported by the page) visits
		// or skips every document exactly once.
		for _, cc := range []struct {
			c   *spanjoin.Corpus
			ids []spanjoin.DocID
		}{{c, ids}, {ci, idsIdx}} {
			tctx, tr := spanjoin.WithTrace(context.Background())
			total, err := cc.c.Count(tctx, pattern)
			if err != nil {
				t.Fatal(err)
			}
			perDoc, err := cc.c.CountAll(context.Background(), pattern)
			if err != nil {
				t.Fatal(err)
			}
			var sum uint64
			order := make([]int, len(docs))
			for i := range docs {
				order[i] = i
				n, _ := perDoc[cc.ids[i]].Uint64()
				if n != uint64(len(wants[i])) {
					t.Fatalf("pattern %q doc %q: CountAll %d, per-doc eval %d", pattern, docs[i], n, len(wants[i]))
				}
				sum += n
			}
			if n, ok := total.Uint64(); !ok || n != sum {
				t.Fatalf("pattern %q: Count %v, per-document sum %d", pattern, total, sum)
			}
			page, err := cc.c.EvalPage(context.Background(), pattern, 0, int(sum))
			if err != nil {
				t.Fatal(err)
			}
			sort.Slice(order, func(a, b int) bool { return cc.ids[order[a]] < cc.ids[order[b]] })
			k := 0
			for _, i := range order {
				for _, w := range wants[i] {
					if k >= len(page.Matches) || page.Matches[k].Doc != cc.ids[i] || tupleOf(page.Matches[k].Match).Compare(w) != 0 {
						t.Fatalf("pattern %q: page row %d differs from doc %q's per-doc eval", pattern, k, docs[i])
					}
					k++
				}
			}
			if k != len(page.Matches) {
				t.Fatalf("pattern %q: page has %d rows, per-doc evals %d", pattern, len(page.Matches), k)
			}
			if st := page.Stats; st.Scanned+st.Skipped != uint64(len(docs)) {
				t.Fatalf("pattern %q: page stats %+v don't cover %d docs", pattern, st, len(docs))
			}
			counted := int64(-1)
			for _, stage := range tr.Spans() {
				if stage.Stage == spanjoin.StageCount {
					counted = stage.Items
				}
			}
			if uint64(counted) != page.Stats.Scanned {
				t.Fatalf("pattern %q: Count scanned %d docs, the page's count %d", pattern, counted, page.Stats.Scanned)
			}
		}
	})
}
