package spanjoin_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"spanjoin"
	"spanjoin/internal/alloctest"
)

// TestQueryHonorsLimitAndTimeout: the query entry points that drain
// internally apply WithLimit and WithTimeout exactly as Spanner.Eval and
// Spanner.Count do — a limit caps the materialized prefix, and a fired
// timeout is context.DeadlineExceeded, never a partial or full result.
func TestQueryHonorsLimitAndTimeout(t *testing.T) {
	const pattern = `.*x{a+}.*`
	sp := spanjoin.MustCompile(pattern)
	q := spanjoin.NewQuery().Atom(pattern).MustBuild()
	u, err := spanjoin.NewUnion(q)
	if err != nil {
		t.Fatal(err)
	}
	eq := spanjoin.NewQuery().Atom(`.*x{a+}.*`).Atom(`.*y{a+}.*`).Equal("x", "y").MustBuild()
	small, big := strings.Repeat("a", 200), strings.Repeat("a", 3000)
	limit, expired := spanjoin.WithLimit(3), spanjoin.WithTimeout(time.Nanosecond)

	all, err := q.Evaluate(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 200*201/2 {
		t.Fatalf("unlimited Evaluate: %d matches, want %d", len(all), 200*201/2)
	}
	for name, eval := range map[string]func(string, ...spanjoin.Option) ([]spanjoin.Match, error){
		"Query.Evaluate":      q.Evaluate,
		"UnionQuery.Evaluate": u.Evaluate,
	} {
		got, err := eval(small, limit)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 3 {
			t.Fatalf("%s with WithLimit(3): %d matches", name, len(got))
		}
		for i := range got {
			if matchKey(got[i]) != matchKey(all[i]) {
				t.Fatalf("%s with WithLimit(3): match %d is %v, want %v", name, i, got[i], all[i])
			}
		}
		if got, err := eval(small, expired); !errors.Is(err, context.DeadlineExceeded) || got != nil {
			t.Fatalf("%s with an expired timeout: %d matches, %v; want DeadlineExceeded", name, len(got), err)
		}
	}

	if _, err := sp.Count(big, expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Spanner.Count with an expired timeout: %v, want DeadlineExceeded", err)
	}
	for name, query := range map[string]*spanjoin.Query{"shared plan": q, "per document": eq} {
		if n, err := query.Count(big, expired); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Query.Count (%s) with an expired timeout: %v, %v; want DeadlineExceeded", name, n, err)
		}
		if ok, err := query.Exists(big, expired); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Query.Exists (%s) with an expired timeout: %v, %v; want DeadlineExceeded", name, ok, err)
		}
	}
	if n, err := q.Count(big, limit); err != nil || n.String() != "4501500" {
		t.Fatalf("Query.Count with WithLimit: %v, %v; want the full count 4501500, as Spanner.Count", n, err)
	}
	if ok, err := eq.Exists("aa", limit); err != nil || !ok {
		t.Fatalf("Query.Exists: %v, %v", ok, err)
	}
}

// TestEvalAllLimitStopsDrain: WithLimit stops each document's drain at
// the limit — on a document with millions of matches, WithLimit(1) costs
// one graph build and one match, not millions of materialized ones.
func TestEvalAllLimitStopsDrain(t *testing.T) {
	sp := spanjoin.MustCompile(`.*x{a+}.*`)
	docs := []string{strings.Repeat("a", 2048)} // 2,098,176 matches
	avg := alloctest.Run(t, 3, func() {
		out, err := sp.EvalAll(docs, spanjoin.WithLimit(1))
		if err != nil || len(out[0]) != 1 {
			t.Fatalf("EvalAll with WithLimit(1): %v, %v", out, err)
		}
	})
	// A fresh stream's graph build allocates a few times per document
	// position; a full drain would allocate once per match on top.
	if bound := float64(8 * len(docs[0])); avg > bound {
		t.Fatalf("EvalAll with WithLimit(1) allocated %.0f times per call, want at most %.0f (one graph build)", avg, bound)
	}
}

// TestSkipIterateCtxVsIterate: a context stream skips onto the same next
// match as a plain one, on both sides of the ranked-descent threshold, and
// a cancelled context stops the skip.
func TestSkipIterateCtxVsIterate(t *testing.T) {
	sp := spanjoin.MustCompile(`.*x{a+}.*`)
	doc := strings.Repeat("ab", 40)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, k := range []uint64{1, 5, 16, 17, 100, 819} {
		plain, err := sp.Iterate(doc)
		if err != nil {
			t.Fatal(err)
		}
		withCtx, err := sp.IterateCtx(ctx, doc)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := plain.Skip(k), withCtx.Skip(k); a != b {
			t.Fatalf("Skip(%d): Iterate skipped %d, IterateCtx %d", k, a, b)
		}
		a, okA := plain.Next()
		b, okB := withCtx.Next()
		if okA != okB || (okA && matchKey(a) != matchKey(b)) {
			t.Fatalf("after Skip(%d): Iterate %v (%v), IterateCtx %v (%v)", k, a, okA, b, okB)
		}
		if err := plain.Err(); err != nil {
			t.Fatal(err)
		}
		if err := withCtx.Err(); err != nil {
			t.Fatal(err)
		}
	}

	ms, err := sp.IterateCtx(ctx, doc)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if n := ms.Skip(3); n != 0 {
		t.Fatalf("Skip on a cancelled stream skipped %d", n)
	}
	if err := ms.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err after a cancelled Skip = %v, want context.Canceled", err)
	}
}
