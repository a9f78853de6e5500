package main

import (
	"fmt"
	"testing"

	"spanjoin/internal/enum"
	"spanjoin/internal/rgx"
	"spanjoin/internal/workload"
)

func init() {
	register("EB", "engine — byte-class compiled transition matrices: graph build as a word-parallel matrix sweep", runEB)
}

// ebWorkload is one pattern family of the EB sweep. docAlpha is the byte
// set documents draw from (chosen so both live and multi-class bytes
// occur); the E1 shape is the acceptance workload.
type ebWorkload struct {
	name     string
	pattern  string
	docAlpha string
}

// ebDoc returns a seeded random document over the workload's alphabet.
func ebDoc(r interface{ Intn(int) int }, alpha string, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = alpha[r.Intn(len(alpha))]
	}
	return string(b)
}

func runEB(quick bool) {
	fmt.Println("Per-document graph construction: the byte-class matrix sweep (Prepare/Reset on a")
	fmt.Println("shared Plan; forward pass = one fused row×matrix multiply per position) vs the")
	fmt.Println("preserved per-transition reference build (walk charAdj, test Class.Contains per")
	fmt.Println("transition, OR closure rows per hit). Both measured as steady-state Reset(doc),")
	fmt.Println("i.e. pure build time into warm arenas; the compiled table itself is built once")
	fmt.Println("per plan and amortized across the corpus by the compiled-query cache.")
	fmt.Println()

	workloads := []ebWorkload{
		{"E1 shape", ".*x{a+}.*y{b+}.*", "ab"},
		{"byte classes", "[^0-9]*x{[0-9]+}[ :=]y{[a-z]+}.*", "0123456789 :=abcxyz"},
		{"dense Σ", "x{.*}y{.*}", "abcdefgh"},
	}
	sizes := []int{128, 512, 2048}
	if quick {
		sizes = sizes[:2]
	}

	t := newTable("workload", "byte classes", "|s|",
		"ref build ns/op", "matrix build ns/op", "speedup",
		"ref allocs/op", "matrix allocs/op")
	for wi, w := range workloads {
		a := rgx.MustCompilePattern(w.pattern)
		p, err := enum.NewPlan(a)
		if err != nil {
			panic(err)
		}
		for _, n := range sizes {
			doc := ebDoc(workload.Rand(int64(900+10*wi)), w.docAlpha, n)

			em := p.NewEnumerator()
			em.Reset(doc) // warm the arenas: measure steady-state builds
			rm := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					em.Reset(doc)
				}
			})

			er, err := enum.PrepareOnce(a, doc)
			if err != nil {
				panic(err)
			}
			rr := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					er.Reset(doc)
				}
			})

			speedup := float64(rr.NsPerOp()) / float64(rm.NsPerOp())
			t.add(w.name, p.ByteClasses(), n,
				rr.NsPerOp(), rm.NsPerOp(), fmt.Sprintf("%.2fx", speedup),
				rr.AllocsPerOp(), rm.AllocsPerOp())
		}
	}
	t.print()
}
