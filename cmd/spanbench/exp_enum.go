package main

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"spanjoin/internal/alphabet"
	"spanjoin/internal/enum"
	"spanjoin/internal/rgx"
	"spanjoin/internal/span"
	"spanjoin/internal/vsa"
	"spanjoin/internal/workload"
)

func init() {
	register("E1", "Thm 3.3 — polynomial-delay enumeration: delay vs |s| and vs automaton size", runE1)
	register("E2", "Lemma 3.4 — regex→vset-automaton compilation is linear in |α|", runE2)
	register("E9", "Prop 3.6 — key-attribute test scaling (O(n⁴) bound)", runE9)
	register("E10", "Functionalization blow-up is exponential in |V| (≤ n·3^v)", runE10)
	register("F1", "Figure 1 — the NFA A_G for A_fun on s = aa", runF1)
	register("G1", "Examples 4.2 and A.1 — golden result tables", runG1)
}

// delayStats prepares an enumerator and measures preprocessing time, the
// maximum and mean inter-tuple delay over at most cap tuples.
func delayStats(a *vsa.VSA, s string, cap int) (prep, maxDelay, meanDelay time.Duration, tuples int) {
	start := time.Now()
	e, err := enum.Prepare(a, s)
	if err != nil {
		panic(err)
	}
	prep = time.Since(start)
	var total time.Duration
	for tuples < cap {
		t0 := time.Now()
		_, ok := e.Next()
		d := time.Since(t0)
		if !ok {
			break
		}
		tuples++
		total += d
		if d > maxDelay {
			maxDelay = d
		}
	}
	if tuples > 0 {
		meanDelay = total / time.Duration(tuples)
	}
	return
}

func runE1(quick bool) {
	fmt.Println("Delay vs |s| (automaton fixed: `.*x{a+}.*y{b+}.*`, 18 states; cap 2000 tuples).")
	fmt.Println("Claim: preprocessing O(n²·|s|), ~linear in |s|; delay O(n²·|s|) in the worst case, but")
	fmt.Println("a step touches only the levels it changes, so the observed mean delay need not grow with |s|.")
	fmt.Println()
	a := rgx.MustCompilePattern(".*x{a+}.*y{b+}.*")
	sizes := []int{128, 256, 512, 1024, 2048, 4096}
	if quick {
		sizes = sizes[:4]
	}
	t := newTable("|s|", "prep", "max delay", "mean delay", "tuples(cap)", "prep/|s| (ns)")
	var means []time.Duration
	for _, n := range sizes {
		s := workload.RandomString(workload.Rand(1), n, 2)
		prep, maxD, meanD, cnt := delayStats(a, s, 2000)
		t.add(n, prep, maxD, meanD, cnt, float64(prep.Nanoseconds())/float64(n))
		means = append(means, meanD)
	}
	t.print()
	fmt.Printf("Observed mean delay: %s–%s across |s| = %d…%d (worst-case bound O(n²·|s|)).\n",
		fmtDuration(slices.Min(means)), fmtDuration(slices.Max(means)), sizes[0], sizes[len(sizes)-1])

	fmt.Println()
	fmt.Println("Delay vs automaton size (string fixed at |s|=256; v independent 1-char variables).")
	t2 := newTable("vars", "states n", "prep", "max delay", "mean delay", "maxdelay/n² (ns)")
	s := workload.RandomString(workload.Rand(2), 256, 2)
	vmax := 4
	if quick {
		vmax = 3
	}
	for v := 1; v <= vmax; v++ {
		var sb strings.Builder
		sb.WriteString(".*")
		for i := 1; i <= v; i++ {
			fmt.Fprintf(&sb, "x%d{a}.*", i)
		}
		auto := rgx.MustCompilePattern(sb.String())
		n := auto.Trim().NumStates()
		prep, maxD, meanD, _ := delayStats(auto, s, 2000)
		t2.add(v, n, prep, maxD, meanD, float64(maxD.Nanoseconds())/float64(n*n))
	}
	t2.print()
}

func runE2(quick bool) {
	fmt.Println("Compilation time and automaton size vs |α| (pattern `(a*b)^k x{a+} (b*a)^k`).")
	fmt.Println("Claim: O(|α|) — time/|α| and states/|α| stay ~flat.")
	fmt.Println()
	ks := []int{16, 64, 256, 1024, 4096}
	if quick {
		ks = ks[:4]
	}
	t := newTable("|pattern|", "compile", "states", "ns/byte", "states/byte")
	for _, k := range ks {
		pattern := strings.Repeat("a*b", k) + "x{a+}" + strings.Repeat("b*a", k)
		var a *vsa.VSA
		d := timeIt(func() {
			var err error
			a, err = rgx.CompilePattern(pattern)
			if err != nil {
				panic(err)
			}
		})
		t.add(len(pattern), d, a.NumStates(),
			float64(d.Nanoseconds())/float64(len(pattern)),
			float64(a.NumStates())/float64(len(pattern)))
	}
	t.print()
}

func runE9(quick bool) {
	fmt.Println("Key-attribute decision time vs automaton size (pattern `(a|b)^m x{a} y{.}(a|b)*` family).")
	fmt.Println("Claim: polynomial, within the O(n⁴) bound; observed growth is far milder on sparse automata.")
	fmt.Println()
	ms := []int{4, 8, 16, 32, 64}
	if quick {
		ms = ms[:4]
	}
	t := newTable("m", "states n", "key(x)", "time", "time ratio")
	var prev time.Duration
	for _, m := range ms {
		pattern := strings.Repeat("(a|b)", m) + "x{a}y{.}(a|b)*"
		a := rgx.MustCompilePattern(pattern)
		n := a.Trim().NumStates()
		var ok bool
		d := timeIt(func() {
			var err error
			ok, err = vsa.KeyAttribute(a, "x")
			if err != nil {
				panic(err)
			}
		})
		ratio := "-"
		if prev > 0 {
			ratio = fmt.Sprintf("%.1fx", float64(d)/float64(prev))
		}
		prev = d
		t.add(m, n, ok, d, ratio)
	}
	t.print()
}

func runE10(quick bool) {
	fmt.Println("Functionalization of a one-state automaton with v variable self-loops.")
	fmt.Println("Claim ([15] via §2.2.3): worst-case blow-up exponential in v; here exactly ≤ 3^v states.")
	fmt.Println()
	vmax := 7
	if quick {
		vmax = 5
	}
	t := newTable("v", "input states", "output states", "3^v", "time")
	for v := 1; v <= vmax; v++ {
		vars := make([]string, v)
		for i := range vars {
			vars[i] = fmt.Sprintf("x%d", i)
		}
		a := &vsa.VSA{Vars: span.NewVarList(vars...), Adj: make([][]vsa.Tr, 1), Init: 0, Final: 0}
		for i := 0; i < v; i++ {
			a.AddOpen(0, int32(i), 0)
			a.AddClose(0, int32(i), 0)
		}
		a.AddChar(0, alphabet.Single('a'), 0)
		var f *vsa.VSA
		d := timeIt(func() { f = vsa.Functionalize(a) })
		pow := 1
		for i := 0; i < v; i++ {
			pow *= 3
		}
		t.add(v, a.NumStates(), f.NumStates(), pow, d)
	}
	t.print()
}

func runF1(bool) {
	fmt.Println("The layered NFA A_G constructed from A_fun (Example 4.1) and s = aa,")
	fmt.Println("reproducing Figure 1. Levels are boundary indices 0..|s|; each node is")
	fmt.Println("(level, state) labelled with its variable-configuration letter ~c(x).")
	fmt.Println()
	a := &vsa.VSA{Vars: span.NewVarList("x"), Adj: make([][]vsa.Tr, 3), Init: 0, Final: 2}
	a.AddChar(0, alphabet.Single('a'), 0)
	a.AddOpen(0, 0, 1)
	a.AddChar(1, alphabet.Single('a'), 1)
	a.AddClose(1, 0, 2)
	a.AddChar(2, alphabet.Single('a'), 2)
	e, err := enum.Prepare(a, "aa")
	if err != nil {
		panic(err)
	}
	names := map[int32]string{0: "q0", 1: "q1", 2: "qf"}
	levels := e.Levels()
	for i, lvl := range levels {
		for _, nd := range lvl {
			fmt.Printf("  (%d,%s) letter=%s", i, names[nd.State], e.LetterConfig(nd.Letter))
			var targets []string
			for k := range nd.TargetLetters {
				for _, tgt := range nd.TargetsByLetter[k] {
					targets = append(targets, fmt.Sprintf("(%d,%s)", i+1, names[levels[i+1][tgt].State]))
				}
			}
			if len(targets) > 0 {
				fmt.Printf("  ->  %s", strings.Join(targets, " "))
			}
			fmt.Println()
		}
	}
}

func runG1(bool) {
	fmt.Println("Example 4.2 — [[A_fun]](aa) with configuration sequences (radix order):")
	fmt.Println()
	a := &vsa.VSA{Vars: span.NewVarList("x"), Adj: make([][]vsa.Tr, 3), Init: 0, Final: 2}
	a.AddChar(0, alphabet.Single('a'), 0)
	a.AddOpen(0, 0, 1)
	a.AddChar(1, alphabet.Single('a'), 1)
	a.AddClose(1, 0, 2)
	a.AddChar(2, alphabet.Single('a'), 2)
	vars, tuples, err := enum.Eval(a, "aa")
	if err != nil {
		panic(err)
	}
	t := newTable("µ(x)", "~c1,~c2,~c3")
	for _, tu := range tuples {
		t.add(tu.Format(vars), cfgSeq(tu[0], 2))
	}
	t.print()

	fmt.Println()
	fmt.Println("Example A.1 — [[a* x{a*} a*]](aaa):")
	fmt.Println()
	a2 := rgx.MustCompilePattern("a*x{a*}a*")
	vars2, tuples2, err := enum.Eval(a2, "aaa")
	if err != nil {
		panic(err)
	}
	t2 := newTable("µ(x)", "~c1..~c4")
	for _, tu := range tuples2 {
		t2.add(tu.Format(vars2), cfgSeq(tu[0], 3))
	}
	t2.print()
}

// cfgSeq renders the configuration sequence of a single-variable span on a
// length-n string, as in the paper's tables.
func cfgSeq(p span.Span, n int) string {
	parts := make([]string, n+1)
	for i := 0; i <= n; i++ {
		pos := i + 1
		switch {
		case pos < p.Start:
			parts[i] = "w"
		case pos < p.End:
			parts[i] = "o"
		default:
			parts[i] = "c"
		}
	}
	return strings.Join(parts, ",")
}
