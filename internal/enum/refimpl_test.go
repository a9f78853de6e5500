package enum

// This file preserves the pre-bitset slice implementation of Prepare and of
// the radix enumeration verbatim (modulo renaming) as a golden reference.
// The cross-validation tests assert that the bitset engine produces
// byte-identical enumeration output — same tuples, same radix order — on
// randomized automata and documents.

import (
	"sort"

	"spanjoin/internal/span"
	"spanjoin/internal/vsa"
)

type refEnumerator struct {
	vars    span.VarList
	n       int
	empty   bool
	configs []vsa.Config
	levels  [][]GraphNode

	startLetters  []int32
	startByLetter [][]int32

	started bool
	done    bool
	letters []int32
	sets    [][]int32
}

// refPrepare is the pre-change Prepare: per-level []bool buffers and
// [][]int32 closure walks, no reuse.
func refPrepare(a *vsa.VSA, s string) (*refEnumerator, error) {
	t, ct, err := a.RequireFunctional()
	if err != nil {
		return nil, err
	}
	e := &refEnumerator{vars: t.Vars, n: len(s)}
	if t.NumStates() == 2 && t.NumTransitions() == 0 && t.Init != t.Final {
		e.empty = true
		return e, nil
	}
	cl := t.NewClosures()
	n := t.NumStates()
	N := len(s)

	levelStates := make([][]int32, N+1)
	cur := make([]bool, n)
	for _, q := range cl.VE[t.Init] {
		cur[q] = true
	}
	levelStates[0] = refBoolsToList(cur)
	rawEdges := make([][][]int32, N)
	for i := 0; i < N; i++ {
		next := make([]bool, n)
		rawEdges[i] = make([][]int32, n)
		for _, p := range levelStates[i] {
			var succ []bool
			for _, tr := range t.Adj[p] {
				if tr.Kind != vsa.KChar || !tr.Class.Contains(s[i]) {
					continue
				}
				if succ == nil {
					succ = make([]bool, n)
				}
				for _, q := range cl.VE[tr.To] {
					succ[q] = true
				}
			}
			if succ == nil {
				continue
			}
			lst := refBoolsToList(succ)
			rawEdges[i][p] = lst
			for _, q := range lst {
				next[q] = true
			}
		}
		levelStates[i+1] = refBoolsToList(next)
	}
	finalOK := false
	for _, q := range levelStates[N] {
		if q == t.Final {
			finalOK = true
		}
	}
	if !finalOK {
		e.empty = true
		return e, nil
	}
	levelStates[N] = []int32{t.Final}

	alive := make([][]bool, N+1)
	alive[N] = make([]bool, n)
	alive[N][t.Final] = true
	for i := N - 1; i >= 0; i-- {
		alive[i] = make([]bool, n)
		for _, p := range levelStates[i] {
			for _, q := range rawEdges[i][p] {
				if alive[i+1][q] {
					alive[i][p] = true
					break
				}
			}
		}
	}

	letterOf := refInternLetters(t, ct, e)

	e.levels = make([][]GraphNode, N+1)
	idxAt := make([][]int32, N+1)
	for i := 0; i <= N; i++ {
		idxAt[i] = make([]int32, n)
		for k := range idxAt[i] {
			idxAt[i][k] = -1
		}
		for _, q := range levelStates[i] {
			if !alive[i][q] {
				continue
			}
			idxAt[i][q] = int32(len(e.levels[i]))
			e.levels[i] = append(e.levels[i], GraphNode{State: q, Letter: letterOf[q]})
		}
	}
	if len(e.levels[0]) == 0 {
		e.empty = true
		return e, nil
	}
	for i := 0; i < N; i++ {
		for k := range e.levels[i] {
			node := &e.levels[i][k]
			var pairs []letterTarget
			for _, q := range rawEdges[i][node.State] {
				if j := idxAt[i+1][q]; j >= 0 {
					pairs = append(pairs, letterTarget{letterOf[q], j})
				}
			}
			node.TargetLetters, node.TargetsByLetter = groupByLetter(pairs)
		}
	}
	var startPairs []letterTarget
	for k := range e.levels[0] {
		startPairs = append(startPairs, letterTarget{e.levels[0][k].Letter, int32(k)})
	}
	e.startLetters, e.startByLetter = groupByLetter(startPairs)

	e.letters = make([]int32, N+1)
	e.sets = make([][]int32, N+1)
	return e, nil
}

func refInternLetters(t *vsa.VSA, ct *vsa.ConfigTable, e *refEnumerator) []int32 {
	n := t.NumStates()
	type entry struct {
		key string
		cfg vsa.Config
	}
	seen := map[string]bool{}
	var entries []entry
	for q := 0; q < n; q++ {
		cfg := ct.Cfg[q]
		if cfg == nil {
			cfg = make(vsa.Config, len(t.Vars))
		}
		k := cfg.Key()
		if !seen[k] {
			seen[k] = true
			entries = append(entries, entry{key: k, cfg: cfg})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	id := make(map[string]int32, len(entries))
	e.configs = make([]vsa.Config, len(entries))
	for i, en := range entries {
		id[en.key] = int32(i)
		e.configs[i] = en.cfg
	}
	letterOf := make([]int32, n)
	for q := 0; q < n; q++ {
		cfg := ct.Cfg[q]
		if cfg == nil {
			cfg = make(vsa.Config, len(t.Vars))
		}
		letterOf[q] = id[cfg.Key()]
	}
	return letterOf
}

func refBoolsToList(b []bool) []int32 {
	var out []int32
	for i, ok := range b {
		if ok {
			out = append(out, int32(i))
		}
	}
	return out
}

func (e *refEnumerator) next() (t span.Tuple, ok bool) {
	if e.empty || e.done {
		return nil, false
	}
	if !e.started {
		e.started = true
		if !e.minString(0) {
			e.done = true
			return nil, false
		}
		return e.decode(), true
	}
	if !e.nextString() {
		e.done = true
		return nil, false
	}
	return e.decode(), true
}

func (e *refEnumerator) all() []span.Tuple {
	var out []span.Tuple
	for {
		t, ok := e.next()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}

func (e *refEnumerator) lettersInto(l int) func(yield func(letters []int32, byLetter [][]int32)) {
	return func(yield func([]int32, [][]int32)) {
		if l == 0 {
			yield(e.startLetters, e.startByLetter)
			return
		}
		for _, u := range e.sets[l-1] {
			node := &e.levels[l-1][u]
			yield(node.TargetLetters, node.TargetsByLetter)
		}
	}
}

func (e *refEnumerator) minLetterInto(l int) (int32, bool) {
	best := int32(-1)
	e.lettersInto(l)(func(letters []int32, _ [][]int32) {
		if len(letters) > 0 && (best < 0 || letters[0] < best) {
			best = letters[0]
		}
	})
	return best, best >= 0
}

func (e *refEnumerator) nextLetterInto(l int, after int32) (int32, bool) {
	best := int32(-1)
	e.lettersInto(l)(func(letters []int32, _ [][]int32) {
		k := sort.Search(len(letters), func(i int) bool { return letters[i] > after })
		if k < len(letters) && (best < 0 || letters[k] < best) {
			best = letters[k]
		}
	})
	return best, best >= 0
}

func (e *refEnumerator) setLevel(l int, letter int32) {
	e.letters[l] = letter
	var merged []int32
	e.lettersInto(l)(func(letters []int32, byLetter [][]int32) {
		k := sort.Search(len(letters), func(i int) bool { return letters[i] >= letter })
		if k < len(letters) && letters[k] == letter {
			merged = refMergeSorted(merged, byLetter[k])
		}
	})
	e.sets[l] = merged
}

func refMergeSorted(a, b []int32) []int32 {
	if len(a) == 0 {
		return append([]int32(nil), b...)
	}
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func (e *refEnumerator) minString(l int) bool {
	for i := l; i <= e.n; i++ {
		letter, ok := e.minLetterInto(i)
		if !ok {
			return false
		}
		e.setLevel(i, letter)
	}
	return true
}

func (e *refEnumerator) nextString() bool {
	for i := e.n; i >= 0; i-- {
		letter, ok := e.nextLetterInto(i, e.letters[i])
		if !ok {
			continue
		}
		e.setLevel(i, letter)
		if e.minString(i + 1) {
			return true
		}
	}
	return false
}

func (e *refEnumerator) decode() span.Tuple {
	t := make(span.Tuple, len(e.vars))
	for vi := range e.vars {
		start, end := -1, -1
		for i := 0; i <= e.n; i++ {
			st := e.configs[e.letters[i]][vi]
			if start < 0 && st != vsa.W {
				start = i + 1
			}
			if end < 0 && st == vsa.C {
				end = i + 1
				break
			}
		}
		t[vi] = span.Span{Start: start, End: end}
	}
	return t
}

// letterTarget and groupByLetter group (letter, target) pairs by letter,
// sorted and deduplicated — the reference grouping refPrepare builds its
// nodes with; only the tests need it.
type letterTarget struct {
	letter int32
	target int32
}

func groupByLetter(pairs []letterTarget) ([]int32, [][]int32) {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].letter != pairs[j].letter {
			return pairs[i].letter < pairs[j].letter
		}
		return pairs[i].target < pairs[j].target
	})
	var letters []int32
	var byLetter [][]int32
	for _, p := range pairs {
		k := len(letters)
		if k == 0 || letters[k-1] != p.letter {
			letters = append(letters, p.letter)
			byLetter = append(byLetter, nil)
			k++
		}
		lst := byLetter[k-1]
		if len(lst) == 0 || lst[len(lst)-1] != p.target {
			byLetter[k-1] = append(lst, p.target)
		}
	}
	return letters, byLetter
}
