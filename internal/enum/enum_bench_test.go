package enum_test

import (
	"fmt"
	"testing"

	"spanjoin/internal/enum"
	"spanjoin/internal/rgx"
	"spanjoin/internal/span"
	"spanjoin/internal/vsa"
	"spanjoin/internal/workload"
)

func vsaAccepts(a *vsa.VSA, s string, vars span.VarList, t span.Tuple) (bool, error) {
	return vsa.AcceptsTuple(a, s, vars, t)
}

func BenchmarkPrepare(b *testing.B) {
	a := rgx.MustCompilePattern(".*x{a+}.*y{b+}.*")
	s := workload.RandomString(workload.Rand(1), 1024, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enum.Prepare(a, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNextTuple measures the per-tuple delay at two document sizes:
// it should not grow with |s|, since each step only touches the levels it
// changes.
func BenchmarkNextTuple(b *testing.B) {
	a := rgx.MustCompilePattern(".*x{a+}.*y{b+}.*")
	for _, n := range []int{512, 4096} {
		b.Run(fmt.Sprintf("s=%d", n), func(b *testing.B) {
			s := workload.RandomString(workload.Rand(1), n, 2)
			e, err := enum.Prepare(a, s)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := e.Next(); !ok {
					b.StopTimer()
					e.Reset(s)
					b.StartTimer()
				}
			}
		})
	}
}

func BenchmarkMembershipVsEnumeration(b *testing.B) {
	// Deciding one tuple should not depend on the result count.
	a := rgx.MustCompilePattern(".*x{a+}.*")
	s := workload.RandomString(workload.Rand(2), 512, 2)
	e, err := enum.Prepare(a, s)
	if err != nil {
		b.Fatal(err)
	}
	tu, ok := e.Next()
	if !ok {
		b.Skip("no tuple")
	}
	b.Run("enumerate-all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _, err := enum.Eval(a, s)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("membership-one", func(b *testing.B) {
		vars := e.Vars()
		for i := 0; i < b.N; i++ {
			ok, err := vsaAccepts(a, s, vars, tu)
			if err != nil || !ok {
				b.Fatal(ok, err)
			}
		}
	})
}
