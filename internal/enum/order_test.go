package enum_test

import (
	"math/rand"
	"testing"

	"spanjoin/internal/enum"
	"spanjoin/internal/oracle"
	"spanjoin/internal/rgx"
	"spanjoin/internal/span"
	"spanjoin/internal/vsa"
)

// configWord reconstructs the configuration word of a tuple: the radix key
// the enumerator orders by.
func configWord(vars span.VarList, t span.Tuple, n int) string {
	out := make([]byte, 0, (n+1)*len(vars))
	for i := 0; i <= n; i++ {
		pos := i + 1
		for v := range vars {
			switch {
			case pos < t[v].Start:
				out = append(out, 0) // w
			case pos < t[v].End:
				out = append(out, 1) // o
			default:
				out = append(out, 2) // c
			}
		}
	}
	return string(out)
}

// TestRadixOrderStrictlyIncreasing: the emitted configuration words must be
// strictly increasing — this is both the dedup guarantee and the
// deterministic-order contract.
func TestRadixOrderStrictlyIncreasing(t *testing.T) {
	r := rand.New(rand.NewSource(31337))
	patterns := []string{
		".*x{a+}.*y{b+}.*",
		"x{.*}y{.*}",
		"(a|b)*x{(a|b)+}(a|b)*",
		".*x{.}.*y{.}.*z{.}.*",
	}
	for _, p := range patterns {
		a := rgx.MustCompilePattern(p)
		for trial := 0; trial < 4; trial++ {
			n := r.Intn(5) + 2
			b := make([]byte, n)
			for i := range b {
				b[i] = byte('a' + r.Intn(2))
			}
			s := string(b)
			e, err := enum.Prepare(a, s)
			if err != nil {
				t.Fatal(err)
			}
			vars := e.Vars()
			prev := ""
			for {
				tu, ok := e.Next()
				if !ok {
					break
				}
				w := configWord(vars, tu, n)
				if prev != "" && w <= prev {
					t.Fatalf("[[%s]](%q): radix order violated (%q after %q)", p, s, w, prev)
				}
				prev = w
			}
		}
	}
}

// TestEnumerationOnRandomFunctionalAutomataTwoVars widens the random
// cross-check to two variables.
func TestEnumerationOnRandomFunctionalAutomataTwoVars(t *testing.T) {
	r := rand.New(rand.NewSource(404))
	vars := span.NewVarList("x", "y")
	for i := 0; i < 60; i++ {
		a := oracle.RandomFunctionalVSA(r, vars, 4, 9)
		for _, s := range []string{"", "a", "ba"} {
			want := oracle.EvalVSA(a, s)
			_, got, err := enum.Eval(a, s)
			if err != nil {
				t.Fatal(err)
			}
			if !oracle.EqualTupleSets(got, want) {
				t.Fatalf("trial %d on %q: got %d, want %d", i, s, len(got), len(want))
			}
		}
	}
}

// TestPrepareIsReusableAcrossStrings: one automaton, many Prepare calls —
// no shared state may leak between enumerations.
func TestPrepareIsReusableAcrossStrings(t *testing.T) {
	a := rgx.MustCompilePattern("a*x{a*}a*")
	want := map[string]int{"": 1, "a": 3, "aa": 6, "aaa": 10}
	// Interleave two enumerations to catch aliasing.
	e1, err := enum.Prepare(a, "aa")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := enum.Prepare(a, "aaa")
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := 0, 0
	for {
		_, ok1 := e1.Next()
		if ok1 {
			c1++
		}
		_, ok2 := e2.Next()
		if ok2 {
			c2++
		}
		if !ok1 && !ok2 {
			break
		}
	}
	if c1 != want["aa"] || c2 != want["aaa"] {
		t.Errorf("interleaved counts %d/%d, want %d/%d", c1, c2, want["aa"], want["aaa"])
	}
}

// TestStreamResetOrderMatchesFreshPrepare: the corpus shard path — one
// compiled plan, one enumerator per worker, Reset per document — must
// yield exactly the sequence (tuples and order) of a fresh Prepare on
// every document, including after the enumerator has cycled through other
// documents and after mid-stream abandonment.
func TestStreamResetOrderMatchesFreshPrepare(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	patterns := []string{
		"a*x{a*}a*",
		".*x{a+}.*y{b+}.*",
		"(a|b)*x{(a|b)+}(a|b)*",
	}
	for _, p := range patterns {
		a := rgx.MustCompilePattern(p)
		// Documents dealt across three simulated shard workers.
		var shards [3][]string
		for si := range shards {
			for d := 0; d < 4; d++ {
				n := r.Intn(7) + 1
				b := make([]byte, n)
				for i := range b {
					b[i] = byte('a' + r.Intn(2))
				}
				shards[si] = append(shards[si], string(b))
			}
		}
		plan, err := enum.NewPlan(a)
		if err != nil {
			t.Fatal(err)
		}
		workers := []*enum.Enumerator{plan.NewEnumerator(), plan.NewEnumerator(), plan.NewEnumerator()}
		for si, docs := range shards {
			e := workers[si]
			for di, doc := range docs {
				e.Reset(doc)
				var got []span.Tuple
				for {
					tu, ok := e.Next()
					if !ok {
						break
					}
					got = append(got, tu)
				}
				fresh, err := enum.Prepare(a, doc)
				if err != nil {
					t.Fatal(err)
				}
				want := fresh.All()
				if len(got) != len(want) {
					t.Fatalf("[[%s]] shard %d doc %d %q: %d tuples after Reset, fresh Prepare %d",
						p, si, di, doc, len(got), len(want))
				}
				for k := range want {
					if got[k].Compare(want[k]) != 0 {
						t.Fatalf("[[%s]] shard %d doc %d %q: order diverges at %d: %v vs %v",
							p, si, di, doc, k, got[k], want[k])
					}
				}
				// Abandon a partially drained enumeration before the next
				// Reset: the next document must be unaffected.
				if di%2 == 0 {
					e.Reset(doc)
					e.Next()
				}
			}
		}
	}
}

// TestLargeAlphabetString: bytes outside a-z, including 0x00 and 0xff.
func TestLargeAlphabetString(t *testing.T) {
	a := rgx.MustCompilePattern(`.*x{\x00+}.*`)
	s := string([]byte{0xff, 0x00, 0x00, 0x41})
	_, tuples, err := enum.Eval(a, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 3 { // [2,3⟩ [3,4⟩ [2,4⟩
		t.Errorf("got %d tuples, want 3: %v", len(tuples), tuples)
	}
}

var _ = vsa.ErrNotFunctional
