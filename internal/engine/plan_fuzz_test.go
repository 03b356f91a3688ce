package engine

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"hyper/internal/dataset"
	"hyper/internal/hyperql"
	"hyper/internal/plan"
	"hyper/internal/stats"
)

// fuzzData lazily builds one small German-Syn world shared by every fuzz
// iteration (building it per-input would drown the fuzzer in setup time).
var fuzzData = sync.OnceValue(func() *dataset.Single {
	return dataset.GermanSyn(800, 97)
})

// randomPlannedQuery generates a well-formed what-if whose WHEN clause
// deliberately walks the planner's classification space: pushable equality,
// inequality, ranges, IN/NOT IN, AND chains, plus residual shapes (NOT,
// arithmetic) and no WHEN at all.
func randomPlannedQuery(rng *stats.RNG) string {
	conj := func() string {
		switch rng.Intn(8) {
		case 0:
			return fmt.Sprintf("Age = %d", rng.Intn(5)) // incl. never-true code 4
		case 1:
			return fmt.Sprintf("Savings != %d", rng.Intn(4))
		case 2:
			return fmt.Sprintf("CreditAmount > %d", rng.Intn(3))
		case 3:
			return fmt.Sprintf("Housing <= %d", rng.Intn(3))
		case 4:
			return fmt.Sprintf("Age IN (0, %d)", 1+rng.Intn(3))
		case 5:
			return fmt.Sprintf("Age NOT IN (%d)", rng.Intn(4))
		case 6:
			return fmt.Sprintf("NOT (Sex = %d)", rng.Intn(2)) // residual (unary NOT)
		default:
			return fmt.Sprintf("Age + Sex = %d", rng.Intn(4)) // residual (arithmetic)
		}
	}
	src := "USE German "
	switch rng.Intn(4) {
	case 0: // no WHEN
	case 1:
		src += "WHEN " + conj() + " "
	case 2:
		src += "WHEN " + conj() + " AND " + conj() + " "
	default:
		src += "WHEN " + conj() + " AND " + conj() + " AND " + conj() + " "
	}
	updAttrs := []string{"Status", "Savings", "Housing", "CreditAmount"}
	attr := updAttrs[rng.Intn(len(updAttrs))]
	maxCode := map[string]int{"Status": 3, "Savings": 3, "Housing": 2, "CreditAmount": 3}[attr]
	switch rng.Intn(3) {
	case 0:
		src += fmt.Sprintf("UPDATE(%s) = %d ", attr, rng.Intn(maxCode+1))
	case 1:
		src += fmt.Sprintf("UPDATE(%s) = 1 + PRE(%s) ", attr, attr)
	default:
		src += fmt.Sprintf("UPDATE(%s) = 2 * PRE(%s) ", attr, attr)
	}
	switch rng.Intn(3) {
	case 0:
		src += "OUTPUT COUNT(Credit = 1)"
	case 1:
		src += "OUTPUT AVG(POST(Credit))"
	default:
		src += "OUTPUT SUM(POST(Credit))"
	}
	switch rng.Intn(4) {
	case 0:
		src += fmt.Sprintf(" FOR PRE(Sex) = %d", rng.Intn(2))
	case 1:
		src += " FOR POST(Credit) = 1 OR PRE(Age) = 0"
	case 2:
		src += fmt.Sprintf(" FOR PRE(Age) IN (0, %d)", 1+rng.Intn(3))
	}
	return src
}

// bitsEqual compares floats bit-for-bit — the planner's contract is
// bit-identity, not approximate equality.
func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// FuzzPlanParity is the planner's bit-identity fuzzer: for a random
// well-formed what-if, evaluating through the cost-based planner (cold
// compile, then a cache-warm repeat) must produce results bit-for-bit equal
// to the unplanned row-at-a-time path — Value, Sum, and Count alike, at a
// serial and a parallel fan-out. CI runs this as a 30s smoke; locally:
//
//	go test -fuzz=FuzzPlanParity -fuzztime=30s ./internal/engine
func FuzzPlanParity(f *testing.F) {
	for _, seed := range []int64{1, 2, 7, 42, 97, 211, 1234567, -5, math.MaxInt64} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		g := fuzzData()
		rng := stats.NewRNG(seed)
		src := randomPlannedQuery(rng)
		q, err := hyperql.ParseWhatIf(src)
		if err != nil {
			t.Fatalf("generated query does not parse: %q: %v", src, err)
		}
		for _, shards := range []int{1, 4} {
			base := Options{Seed: 1, Shards: shards}
			want, wantErr := Evaluate(g.DB, g.Model, q, base)

			planned := base
			planned.Cache = NewCache()
			planned.Plans = plan.NewCache(planned.Cache)
			for rep, label := range []string{"cold", "warm"} {
				got, err := Evaluate(g.DB, g.Model, q, planned)
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("%q shards=%d %s: planned err=%v, unplanned err=%v", src, shards, label, err, wantErr)
				}
				if err != nil {
					continue
				}
				if !bitsEqual(got.Value, want.Value) || !bitsEqual(got.Sum, want.Sum) || !bitsEqual(got.Count, want.Count) {
					t.Fatalf("%q shards=%d %s: planned (%v,%v,%v) != unplanned (%v,%v,%v); plan:\n%s",
						src, shards, label, got.Value, got.Sum, got.Count, want.Value, want.Sum, want.Count, got.PlanText)
				}
				if rep == 1 && !got.PlanCacheHit {
					t.Fatalf("%q shards=%d: warm repeat missed the plan cache", src, shards)
				}
			}
		}
	})
}
