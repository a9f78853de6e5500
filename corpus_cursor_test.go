package spanjoin_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"spanjoin"
)

func TestCursorTokenRoundTrip(t *testing.T) {
	for _, cur := range []spanjoin.Cursor{
		{Mode: "anchor", Pattern: `.*x{mail}.*`, Offset: 0},
		{Mode: "search", Pattern: `x{a+}`, Offset: 12345},
		{Mode: "anchor", Pattern: "p with spaces + []{}", Offset: math.MaxUint64},
	} {
		tok := cur.Token()
		got, err := spanjoin.ParseCursor(tok)
		if err != nil {
			t.Fatalf("ParseCursor(%q): %v", tok, err)
		}
		if got != cur {
			t.Errorf("round trip: got %+v, want %+v", got, cur)
		}
	}
}

func TestCursorTokenRejectsTampering(t *testing.T) {
	tok := spanjoin.Cursor{Mode: "anchor", Pattern: "x{a}", Offset: 7}.Token()
	bad := []string{
		"",
		"sj1.",
		"not-a-token",
		"sj2." + strings.TrimPrefix(tok, "sj1."), // unknown version
		tok + "AA",                               // trailing garbage
		tok[:len(tok)-2],                         // truncated
		// Flip a payload character: either invalid JSON/base64 or a
		// checksum mismatch — both must reject.
		tok[:5] + string('A'+(tok[5]-'A'+1)%26) + tok[6:],
	}
	for _, b := range bad {
		if _, err := spanjoin.ParseCursor(b); !errors.Is(err, spanjoin.ErrBadCursor) {
			t.Errorf("ParseCursor(%q) = %v, want ErrBadCursor", b, err)
		}
	}
}

func TestCursorAdvanceSaturates(t *testing.T) {
	c := spanjoin.Cursor{Mode: "anchor", Pattern: "x{a}", Offset: math.MaxUint64 - 3}
	if got := c.Advance(2).Offset; got != math.MaxUint64-1 {
		t.Errorf("Advance(2) = %d, want %d", got, uint64(math.MaxUint64-1))
	}
	// Offsets never wrap: past the addressable space they pin to MaxUint64.
	if got := c.Advance(10).Offset; got != math.MaxUint64 {
		t.Errorf("Advance(10) = %d, want saturation at MaxUint64", got)
	}
	sat := spanjoin.Cursor{Offset: math.MaxUint64}
	if got := sat.Advance(1).Offset; got != math.MaxUint64 {
		t.Errorf("saturated Advance(1) = %d, want MaxUint64", got)
	}
}

// TestEvalCursorMatchesSpannerPage drives pagination through cursor
// tokens (parse → eval → advance → re-encode, like a client would) and
// checks every page is identical to addressing the same window directly
// with EvalSpannerPage. A cursor with an empty mode is anchored, and so
// is every cursor it advances to.
func TestEvalCursorMatchesSpannerPage(t *testing.T) {
	c, _ := rankedTestCorpus(t, spanjoin.WithShards(3))
	const pattern = `.*x{mail}.*`
	sp, err := spanjoin.Compile(pattern)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const limit = 2
	for _, mode := range []string{"anchor", ""} {
		cur := spanjoin.Cursor{Mode: mode, Pattern: pattern}
		var got []spanjoin.CorpusMatch
		for pages := 0; ; pages++ {
			if pages > 100 {
				t.Fatal("pagination did not terminate")
			}
			// Round-trip through the token each page, as a stateless client would.
			cur, err = spanjoin.ParseCursor(cur.Token())
			if err != nil {
				t.Fatalf("mode %q: %v", mode, err)
			}
			page, next, more, err := c.EvalCursor(ctx, cur, limit)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := c.EvalSpannerPage(ctx, sp, cur.Offset, limit)
			if err != nil {
				t.Fatal(err)
			}
			if len(page.Matches) != len(ref.Matches) {
				t.Fatalf("page at %d: %d matches, EvalSpannerPage %d", cur.Offset, len(page.Matches), len(ref.Matches))
			}
			for i := range page.Matches {
				if page.Matches[i].Doc != ref.Matches[i].Doc || page.Matches[i].Match.String() != ref.Matches[i].Match.String() {
					t.Fatalf("page at %d, row %d: %v != %v", cur.Offset, i, page.Matches[i], ref.Matches[i])
				}
			}
			got = append(got, page.Matches...)
			if !more {
				break
			}
			cur = next
		}
		// The concatenation of all pages is the whole result sequence.
		total, err := c.Count(ctx, pattern)
		if err != nil {
			t.Fatal(err)
		}
		if u, ok := total.Uint64(); !ok || u != uint64(len(got)) {
			t.Fatalf("mode %q: paged out %d matches, Count says %v", mode, len(got), total)
		}
	}
}

// TestEvalPageOffsetBoundary is the satellite regression test: offsets
// at and near math.MaxUint64 — where offset+limit would wrap a uint64 —
// must come back as exhausted pages, never as a wrapped window serving
// rank-0 results.
func TestEvalPageOffsetBoundary(t *testing.T) {
	c, _ := rankedTestCorpus(t, spanjoin.WithShards(2))
	const pattern = `.*x{mail}.*`
	ctx := context.Background()
	total, err := c.Count(ctx, pattern)
	if err != nil {
		t.Fatal(err)
	}
	tu, ok := total.Uint64()
	if !ok || tu == 0 {
		t.Fatalf("unexpected total %v", total)
	}
	for _, offset := range []uint64{tu, tu + 1, math.MaxUint64 - 1, math.MaxUint64} {
		for _, limit := range []int{1, 7, 1 << 20} {
			page, err := c.EvalPage(ctx, pattern, offset, limit)
			if err != nil {
				t.Fatalf("offset %d limit %d: %v", offset, limit, err)
			}
			if len(page.Matches) != 0 {
				t.Fatalf("offset %d limit %d: got %d matches, want exhausted page", offset, limit, len(page.Matches))
			}
			if u, okT := page.Total.Uint64(); !okT || u != tu {
				t.Fatalf("offset %d: total %v, want %d", offset, page.Total, tu)
			}
		}
	}
	// The cursor layer agrees: a saturated cursor is terminal.
	page, next, more, err := c.EvalCursor(ctx, spanjoin.Cursor{Mode: "anchor", Pattern: pattern, Offset: math.MaxUint64}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Matches) != 0 || more {
		t.Fatalf("cursor at MaxUint64: %d matches, more=%v; want empty terminal page", len(page.Matches), more)
	}
	if next.Offset != math.MaxUint64 {
		t.Fatalf("cursor advanced from MaxUint64 to %d", next.Offset)
	}
}

func TestCorpusSampleUniform(t *testing.T) {
	c, _ := rankedTestCorpus(t, spanjoin.WithShards(2))
	const pattern = `.*x{mail}.*`
	ctx := context.Background()
	ms, err := c.Sample(ctx, pattern, rand.New(rand.NewSource(42)), 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 64 {
		t.Fatalf("got %d samples, want 64", len(ms))
	}
	// Every draw is a genuine match of its document.
	for _, m := range ms {
		s, ok := m.Match.Substr("x")
		if !ok || s != "mail" {
			t.Fatalf("sample bound x=%q ok=%v, want \"mail\"", s, ok)
		}
		if text, ok := c.Doc(m.Doc); !ok || !strings.Contains(text, "mail") {
			t.Fatalf("sample from doc %d (%q), which has no match", m.Doc, text)
		}
	}
	// Same seed, same draws — the contract /sample's seed parameter
	// exposes over the wire.
	again, err := c.Sample(ctx, pattern, rand.New(rand.NewSource(42)), 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ms {
		if ms[i].Doc != again[i].Doc || ms[i].Match.String() != again[i].Match.String() {
			t.Fatalf("draw %d differs under the same seed", i)
		}
	}
	// Doc 2 ("aa mail mail aa") holds 2 of the corpus's matches; with 64
	// draws over a handful of matches, every matched document should be
	// hit at least once (the chance of missing one is astronomically
	// small for a uniform sampler).
	seen := map[spanjoin.DocID]bool{}
	for _, m := range ms {
		seen[m.Doc] = true
	}
	n, _ := c.Count(ctx, pattern)
	if u, _ := n.Uint64(); u >= 3 && len(seen) < 3 {
		t.Errorf("64 uniform draws hit only docs %v", seen)
	}
	// k <= 0 and empty result sets are nil, not errors.
	if ms, err := c.Sample(ctx, pattern, rand.New(rand.NewSource(1)), 0); err != nil || ms != nil {
		t.Errorf("k=0: got %v, %v", ms, err)
	}
	if ms, err := c.Sample(ctx, `.*x{zzzz}.*`, rand.New(rand.NewSource(1)), 5); err != nil || ms != nil {
		t.Errorf("no matches: got %v, %v", ms, err)
	}
}
