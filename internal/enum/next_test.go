package enum

import (
	"math/rand"
	"testing"

	"spanjoin/internal/oracle"
	"spanjoin/internal/rgx"
	"spanjoin/internal/span"
	"spanjoin/internal/vsa"
)

// checkNextVsRef drives one enumerator through abandoned, full and seeked
// enumerations of two documents, and requires every drain to equal the
// golden walk of refimpl_test.go tuple for tuple. Reusing the enumerator
// leaves stale cursor state behind for each step to ignore.
func checkNextVsRef(t *testing.T, a *vsa.VSA, doc, doc2 string) {
	t.Helper()
	p, err := NewPlan(a)
	if err != nil {
		t.Fatal(err)
	}
	e := p.NewEnumerator()
	e.Reset(doc2)
	e.Next()
	e.Next()
	for _, s := range []string{doc, doc2} {
		ref, err := refPrepare(a, s)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.all()
		e.Reset(s)
		if got := e.All(); !tuplesEqual(got, want) {
			t.Fatalf("drain of %q: %v, reference %v", s, got, want)
		}
		n := len(want)
		for _, i := range []int{0, n / 3, n / 2, n - 1} {
			if i < 0 || i >= n {
				continue
			}
			w, ok := e.Rank().WordAt(uint64(i), nil)
			if !ok || !e.SeekLetters(w) {
				t.Fatalf("seek to tuple %d of %d on %q failed", i, n, s)
			}
			if got := e.All(); !tuplesEqual(got, want[i:]) {
				t.Fatalf("drain of %q after seek to %d: %v, reference %v", s, i, got, want[i:])
			}
		}
	}
}

// FuzzNextVsRef is the differential fuzz harness for Next: on a pattern
// from the list, or a random functional automaton for larger pi, and two
// documents, every drain — fresh, after an abandoned one, and after a
// seek — must equal the golden reference enumeration.
func FuzzNextVsRef(f *testing.F) {
	patterns := []string{
		"a*x{a*}a*",
		".*x{a+}.*y{b+}.*",
		"x{.*}y{.*}",
		"(a|b)*x{(a|b)+}(a|b)*",
		"[^0-9]*x{[0-9]+}[^0-9]*",
		".*x{a+b}.*",
		"(a|b)*x{a}y{b?}(a|b)*",
		".*x{a+}.*",
	}
	f.Add(uint8(0), int64(0), "aaa", "aa")
	f.Add(uint8(1), int64(0), "aabbab", "ba")
	f.Add(uint8(3), int64(0), "abba", "")
	f.Add(uint8(4), int64(0), "12x34", "7")
	f.Add(uint8(7), int64(0), "abaabaa", "aaaa")
	f.Add(uint8(200), int64(778), "abab", "bba")
	f.Add(uint8(255), int64(5), "aab", "abcab")
	f.Fuzz(func(t *testing.T, pi uint8, seed int64, doc, doc2 string) {
		doc, doc2 = doc[:min(len(doc), 24)], doc2[:min(len(doc2), 24)]
		if int(pi) < len(patterns) {
			checkNextVsRef(t, rgx.MustCompilePattern(patterns[pi]), doc, doc2)
			return
		}
		// Random automata read {a, b}; project the documents onto it so
		// that most runs have results.
		a := oracle.RandomFunctionalVSA(rand.New(rand.NewSource(seed)), span.NewVarList("x", "y"), 5, 14)
		checkNextVsRef(t, a, abDoc(doc), abDoc(doc2))
	})
}

func abDoc(s string) string {
	b := []byte(s)
	for i := range b {
		b[i] = 'a' + b[i]&1
	}
	return string(b)
}

// TestSeekLettersRejectedExhausts: a word the graph does not accept must
// leave the cursor exhausted, even mid-enumeration, whichever position is
// corrupted and whether the letter is in range or not. A corruption that
// yields another accepted word must resume at that word's tuple.
func TestSeekLettersRejectedExhausts(t *testing.T) {
	cases := []struct{ pattern, doc string }{
		{".*x{a+}.*", "abaabaa"},
		{".*x{a+}.*y{b+}.*", "aabbab"},
		{"x{.*}y{.*}", "abc"},
		{"(a|b)*x{a}y{b?}(a|b)*", "abab"},
	}
	for _, c := range cases {
		e, err := Prepare(rgx.MustCompilePattern(c.pattern), c.doc)
		if err != nil {
			t.Fatal(err)
		}
		all := e.All()
		index := make(map[string]int, len(all))
		for i, tu := range all {
			index[tu.Key()] = i
		}
		good, ok := e.Rank().WordAt(uint64(min(3, len(all)-1)), nil)
		if !ok {
			t.Fatalf("%s on %q: no word to corrupt", c.pattern, c.doc)
		}
		// Every letter id, one below, one past and one far out of range.
		bads := []int32{-1, 99}
		for l := int32(0); l <= int32(len(e.configs)); l++ {
			bads = append(bads, l)
		}
		for pos := range good {
			for _, bad := range bads {
				if bad == good[pos] {
					continue
				}
				w := append([]int32(nil), good...)
				w[pos] = bad
				e.Reset(c.doc)
				e.Next()
				if !e.SeekLetters(w) {
					if tu, ok := e.Next(); ok {
						t.Fatalf("%s on %q: rejected seek (letter %d at %d) emitted %v", c.pattern, c.doc, bad, pos, tu)
					}
					continue
				}
				k, found := index[e.DecodeLetters(w).Key()]
				if !found {
					t.Fatalf("%s on %q: seek accepted a non-result word %v", c.pattern, c.doc, w)
				}
				if got := e.All(); !tuplesEqual(got, all[k:]) {
					t.Fatalf("%s on %q: drain after seek to %d: %v, want %v", c.pattern, c.doc, k, got, all[k:])
				}
			}
		}
	}
}
