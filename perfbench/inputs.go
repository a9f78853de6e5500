package main

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"

	"spanjoin"
	"spanjoin/client"
	"spanjoin/internal/core"
	"spanjoin/internal/span"
	"spanjoin/internal/workload"
)

// The patterns every workload reads with. dense yields about 27 tuples
// per 200-byte document; small needs an address in Gent, which the skip
// index narrows to about a fifth of the documents.
const (
	densePattern = `mail{[a-z0-9]+@[a-z]+\.[a-z]+}`
	smallPattern = `adr{[A-Z][a-z]+ [0-9]+ [0-9]+ Gent}`
)

// readPatterns names the patterns of rank's and serve's reads.
var readPatterns = map[string]string{"dense": densePattern, "small": smallPattern}

// coldPattern returns a never-repeated variant of densePattern with the
// same results: the optional suffix cannot occur in generated text (no
// upper-case Q in it), so only the compile-cache key differs, and a cold
// read costs a warm one plus compiling and planning the pattern.
func coldPattern(r *rand.Rand) string {
	return densePattern + "( QZ" + token(r) + ")?"
}

// token returns 12 random lower-case letters.
func token(r *rand.Rand) string { return workload.RandomString(r, 12, 26) }

// corpusDocs returns n documents of about 200 bytes: four sentences with
// e-mail addresses (0.5), Belgium addresses (0.3) and the token police
// (0.3) per sentence.
func corpusDocs(r *rand.Rand, n int) []string {
	docs := make([]string, n)
	for i := range docs {
		docs[i] = workload.Document(r, workload.DocumentOptions{Sentences: 4, EmailRate: 0.5, AddressRate: 0.3, PoliceRate: 0.3})
	}
	return docs
}

// eqDocs returns n one-sentence documents, each carrying an e-mail
// address, for the string-equality query.
func eqDocs(r *rand.Rand, n int) []string {
	docs := make([]string, n)
	for i := range docs {
		docs[i] = workload.Document(r, workload.DocumentOptions{Sentences: 1, EmailRate: 1})
	}
	return docs
}

// plainDocs returns n one-sentence documents without e-mail or street
// addresses: added during serve, they match none of the read patterns,
// so every read keeps one expected answer while the corpus grows.
func plainDocs(r *rand.Rand, n int) []string {
	docs := make([]string, n)
	for i := range docs {
		docs[i] = workload.Document(r, workload.DocumentOptions{Sentences: 1})
	}
	return docs
}

// shortIntroDoc returns the shortest of 20 one-sentence documents with a
// Belgium address and the token police: the canonical strategy, which
// materializes Θ(n⁴) subspan pairs, checks the intro query on it.
func shortIntroDoc(r *rand.Rand) string {
	best := ""
	for i := 0; i < 20; i++ {
		d := workload.Document(r, workload.DocumentOptions{Sentences: 1, AddressRate: 1, PoliceRate: 1})
		if best == "" || len(d) < len(best) {
			best = d
		}
	}
	return best
}

// The paper's introductory query (1): sentences x holding a Belgium
// address y and the token police w.
var introAtoms = [][2]string{
	{"sen", `(.*\. )?x{[A-Za-z0-9 ]+\.}( .*)?`},
	{"adr", `.*y{[A-Za-z]+ [0-9 ]+[A-Za-z]+ z{Belgium}}.*`},
	{"subYX", `.*x{.*y{.*}.*}.*`},
	{"plc", `.*w{police}.*`},
	{"subWX", `.*x{.*w{.*}.*}.*`},
}

// The string-equality query: one-sentence documents whose subject is
// also the local part of the cc address (Thm 5.4, per document).
var eqAtoms = [][2]string{
	{"sub", `x{[a-z]+} .*`},
	{"cc", `.*cc y{[a-z]+}@.*`},
}

// introQuery builds query (1). A non-empty suffix adds a never-matching
// optional tail to the police atom: the same results from a Query that
// shares no compiled state with any other.
func introQuery(suffix string) (*spanjoin.Query, error) {
	b := spanjoin.NewQuery()
	for _, a := range introAtoms {
		p := a[1]
		if a[0] == "plc" && suffix != "" {
			p = `.*w{police}( QZ` + suffix + `)?.*`
		}
		b.AtomNamed(a[0], p)
	}
	return b.Project("x").Build()
}

func eqQuery() (*spanjoin.Query, error) {
	b := spanjoin.NewQuery()
	for _, a := range eqAtoms {
		b.AtomNamed(a[0], a[1])
	}
	return b.Equal("x", "y").Build()
}

// coreCQ builds the engine-level CQ the layer probes time directly.
func coreCQ(atoms [][2]string, proj []string, eqs [][2]string) (*core.CQ, error) {
	q := &core.CQ{Equalities: eqs}
	for _, a := range atoms {
		at, err := core.NewAtom(a[0], a[1])
		if err != nil {
			return nil, err
		}
		q.Atoms = append(q.Atoms, at)
	}
	if proj != nil {
		q.Projection = span.NewVarList(proj...)
	}
	return q, nil
}

// rowKey renders one result row — document and every variable's span,
// variables in name order — as a comparable string. The engine's and the
// wire's row types both reduce to it.
func rowKey(doc uint64, vars []string, spanOf func(string) (int, int)) string {
	b := strconv.AppendUint(nil, doc, 10)
	for _, v := range vars {
		s, e := spanOf(v)
		b = append(b, ' ')
		b = append(b, v...)
		b = append(b, '=')
		b = strconv.AppendInt(b, int64(s), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(e), 10)
	}
	return string(b)
}

func sortedVars(vs []string) []string {
	vs = append([]string(nil), vs...)
	sort.Strings(vs)
	return vs
}

func matchKey(doc spanjoin.DocID, m spanjoin.Match) string {
	return rowKey(uint64(doc), sortedVars(m.Vars()), func(v string) (int, int) {
		s, _ := m.Span(v)
		return s.Start, s.End
	})
}

func wireKey(m client.Match) string {
	vs := make([]string, 0, len(m.Spans))
	for v := range m.Spans {
		vs = append(vs, v)
	}
	return rowKey(m.Doc, sortedVars(vs), func(v string) (int, int) {
		s := m.Spans[v]
		return s.Start, s.End
	})
}

// rowSum hashes one result row for an order-independent stream digest:
// a drain is correct when its row count and the sum of its row hashes
// equal the reference's. It allocates nothing, so checking a stream of
// 50k rows costs little beside draining it.
func rowSum(doc spanjoin.DocID, m spanjoin.Match, vars []string) uint64 {
	h := mix64(uint64(doc) + 1)
	for _, v := range vars {
		s, _ := m.Span(v)
		h = mix64(h ^ uint64(s.Start)<<32 ^ uint64(s.End))
	}
	return h
}

// mix64 is the SplitMix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// expect is one query's reference answer over a corpus: every row in
// corpus order (ascending DocID, each document's rows in the engine's
// order), the row set, and the stream digest.
type expect struct {
	rows []string
	set  map[string]bool
	sum  uint64
}

func newExpect() *expect { return &expect{set: map[string]bool{}} }

func (x *expect) add(doc spanjoin.DocID, m spanjoin.Match) {
	key := matchKey(doc, m)
	x.rows = append(x.rows, key)
	x.set[key] = true
	x.sum += rowSum(doc, m, sortedVars(m.Vars()))
}

// skew makes the expectation wrong by n extra rows; the self-test uses
// it to show that the checks catch a wrong answer.
func (x *expect) skew(n int) {
	for i := 0; i < n; i++ {
		x.rows = append(x.rows, "skew")
		x.sum++
	}
}

// refSpanner evaluates the search pattern document by document with
// Spanner.Eval — the single-document path, no corpus involved.
func refSpanner(pattern string, ids []spanjoin.DocID, docs []string) (*expect, error) {
	sp, err := spanjoin.CompileSearch(pattern)
	if err != nil {
		return nil, err
	}
	x := newExpect()
	for _, i := range byDocID(ids) {
		ms, err := sp.Eval(docs[i])
		if err != nil {
			return nil, err
		}
		for _, m := range ms {
			x.add(ids[i], m)
		}
	}
	return x, nil
}

// refQuery evaluates q document by document with Query.Evaluate.
// Documents lacking one of need cannot match (every atom of the query
// requires its literal), so they are skipped.
func refQuery(q *spanjoin.Query, ids []spanjoin.DocID, docs []string, need []string, opts ...spanjoin.Option) (*expect, error) {
	x := newExpect()
next:
	for _, i := range byDocID(ids) {
		d := docs[i]
		for _, lit := range need {
			if !strings.Contains(d, lit) {
				continue next
			}
		}
		ms, err := q.Evaluate(d, opts...)
		if err != nil {
			return nil, err
		}
		for _, m := range ms {
			x.add(ids[i], m)
		}
	}
	return x, nil
}

// byDocID returns the indices of ids in ascending DocID order — the
// corpus's result order, which need not be the order of insertion.
func byDocID(ids []spanjoin.DocID) []int {
	idx := make([]int, len(ids))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return ids[idx[a]] < ids[idx[b]] })
	return idx
}

// sameRows reports whether two row lists hold the same multiset.
func sameRows(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// checks tallies attempted and failed operations. A failure is an error,
// a shed, a timeout or an output that disagrees with the reference; an
// operation counts once however many of its rows disagree.
type checks struct {
	attempted, failed, mismatched int
	first                         string
}

// mismatch is an output that disagrees with the reference.
type mismatch struct{ msg string }

func (m *mismatch) Error() string { return "mismatch: " + m.msg }

func mismatchf(format string, args ...any) error {
	return &mismatch{fmt.Sprintf(format, args...)}
}

// record counts one operation and its outcome.
func (c *checks) record(err error) {
	c.attempted++
	if err == nil {
		return
	}
	c.failed++
	var m *mismatch
	if errors.As(err, &m) {
		c.mismatched++
	}
	if c.first == "" {
		c.first = err.Error()
	}
}

// verify records one check made outside the timed operations: a set-up
// cross-check or a post-run read-back.
func (c *checks) verify(ok bool, format string, args ...any) {
	if ok {
		c.record(nil)
	} else {
		c.record(mismatchf(format, args...))
	}
}
