package spanjoin_test

import (
	"fmt"
	"testing"

	"spanjoin"
)

func matchStrings(ms []spanjoin.Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.String()
	}
	return out
}

func TestStreamMatchesEval(t *testing.T) {
	sp := spanjoin.MustCompile(`.*x{[a-z]+}@y{[a-z]+}.*`)
	docs := []string{
		"mail alice@example now",
		"no at sign here",
		"",
		"bob@site and carol@host",
		"mail alice@example now", // repeat: exercises arena reuse
	}
	st := sp.NewStream()
	for _, doc := range docs {
		want, err := sp.Eval(doc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Eval(doc)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(matchStrings(got)) != fmt.Sprint(matchStrings(want)) {
			t.Fatalf("doc %q: stream %v, eval %v", doc, got, want)
		}
	}
}

func TestStreamPrefilter(t *testing.T) {
	sp := spanjoin.MustCompile(`.*x{Belgium}.*`)
	st := sp.NewStream()
	ms, err := st.Eval("no such country here")
	if err != nil || len(ms) != 0 {
		t.Fatalf("prefiltered doc: %v, %v", ms, err)
	}
	ms, err = st.Eval("visit Belgium today")
	if err != nil || len(ms) != 1 {
		t.Fatalf("matching doc after prefiltered doc: %v, %v", ms, err)
	}
}

func TestEvalAllAgainstEval(t *testing.T) {
	sp := spanjoin.MustCompile(`.*x{a+}.*y{b+}.*`)
	docs := []string{"aabb", "", "ba", "abab", "bbaa"}
	seq, err := sp.EvalAll(docs)
	if err != nil {
		t.Fatal(err)
	}
	for i, doc := range docs {
		want, err := sp.Eval(doc)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(matchStrings(seq[i])) != fmt.Sprint(matchStrings(want)) {
			t.Fatalf("EvalAll doc %q: %v vs %v", doc, seq[i], want)
		}
	}
}
