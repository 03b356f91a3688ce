package relation

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func chainSchema() *Schema {
	return MustSchema(
		Column{Name: "ID", Kind: KindInt, Key: true},
		Column{Name: "V", Kind: KindFloat, Mutable: true},
	)
}

// buildReference inserts tuples row by row into a fresh relation: the
// semantics every published version must match.
func buildReference(tuples []Tuple) (*Relation, error) {
	ref := NewRelation("T", chainSchema())
	for _, t := range tuples {
		if err := ref.Insert(t); err != nil {
			return nil, err
		}
	}
	return ref, nil
}

// chainVersion is a live version under test beside the input tuples that
// produced it and the reference relation built from them.
type chainVersion struct {
	rel    *Relation
	tuples []Tuple
	ref    *Relation
}

// checkVersion compares one version with its reference: rows, lookups of
// every key seen so far and, when clone is set, a clone's key index.
func checkVersion(t *testing.T, step int, v chainVersion, seen map[int64]bool, clone bool) {
	t.Helper()
	if got, want := v.rel.Len(), v.ref.Len(); got != want {
		t.Fatalf("step %d: Len = %d, want %d", step, got, want)
	}
	if !reflect.DeepEqual(v.rel.Rows(), v.ref.Rows()) {
		t.Fatalf("step %d: rows diverge from the row-by-row reference", step)
	}
	for id := range seen {
		key := Tuple{Int(id), Null}
		if got, want := v.rel.LookupKey(key), v.ref.LookupKey(key); got != want {
			t.Fatalf("step %d: LookupKey(%d) = %d, want %d (len %d)", step, id, got, want, v.rel.Len())
		}
	}
	if !clone {
		return
	}
	if c := v.rel.Clone(); !reflect.DeepEqual(c.keyset, v.ref.keyset) {
		t.Fatalf("step %d: clone key index diverges from the reference", step)
	}
}

// TestExtendChainMatchesReference drives seeded random schedules of head
// appends, forks from older versions and batches that fail part-way (a
// duplicate key, a bad arity, an uncoercible value), and after every step
// holds each live version to a relation built with Insert from the same
// rows. A failed batch must leave every version, and the chain's head, as
// they were.
func TestExtendChainMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			seen := make(map[int64]bool)
			row := func() Tuple {
				id := int64(rng.Intn(400))
				seen[id] = true
				if rng.Intn(2) == 0 {
					return Tuple{Int(id), Int(int64(rng.Intn(9)))} // coerced to float
				}
				return Tuple{Int(id), Float(rng.Float64())}
			}
			var base []Tuple
			for len(base) < 30 {
				t := row()
				if _, err := buildReference(append(base, t)); err == nil {
					base = append(base, t)
				}
			}
			root, err := buildReference(base)
			if err != nil {
				t.Fatal(err)
			}
			ref, _ := buildReference(base)
			live := []chainVersion{{rel: root, tuples: base, ref: ref}}
			forks, failed := 0, 0
			for step := 0; step < 300; step++ {
				parent := live[len(live)-1]
				if rng.Intn(4) == 0 {
					parent = live[rng.Intn(len(live))]
				}
				batch := make([]Tuple, 1+rng.Intn(4))
				for i := range batch {
					batch[i] = row()
				}
				switch bad := rng.Intn(10); {
				case bad == 0:
					batch[rng.Intn(len(batch))] = Tuple{Int(1000)}
				case bad == 1:
					batch[rng.Intn(len(batch))] = Tuple{Int(1001), String("x")}
				}
				tuples := append(append([]Tuple(nil), parent.tuples...), batch...)
				want, wantErr := buildReference(tuples)
				got, err := parent.rel.Extend(batch)
				switch {
				case (err == nil) != (wantErr == nil):
					t.Fatalf("step %d: Extend err = %v, reference err = %v", step, err, wantErr)
				case err != nil:
					failed++
				default:
					if parent.rel != live[len(live)-1].rel {
						forks++
					}
					live = append(live, chainVersion{rel: got, tuples: tuples, ref: want})
					if len(live) > 8 {
						drop := rng.Intn(len(live) - 1)
						live = append(live[:drop], live[drop+1:]...)
					}
				}
				for _, v := range live {
					checkVersion(t, step, v, seen, step%10 == 0)
				}
			}
			if forks == 0 || failed == 0 {
				t.Fatalf("schedule exercised %d forks and %d failed batches; want both", forks, failed)
			}
		})
	}
}

// TestExtendChainConcurrentReaders runs readers over old versions while
// the head keeps extending (and a fork branches off); under -race it checks
// that the shared chain needs no coordination from readers.
func TestExtendChainConcurrentReaders(t *testing.T) {
	root := NewRelation("T", chainSchema())
	for i := 0; i < 100; i++ {
		root.MustInsert(Int(int64(i)), Float(float64(i)))
	}
	versions := []*Relation{root}
	head := root
	for i := 100; i < 110; i++ {
		next, err := head.Extend([]Tuple{{Int(int64(i)), Float(float64(i))}})
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, next)
		head = next
	}

	// Readers make passes until the writer is done, and at least three, so
	// their reads interleave with the appends.
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, len(versions))
	for _, v := range versions {
		wg.Add(1)
		go func(v *Relation) {
			defer wg.Done()
			n := v.Len()
			for pass := 0; ; pass++ {
				if pass >= 3 {
					select {
					case <-done:
						return
					default:
					}
				}
				for id := 0; id < n+50; id++ {
					got := v.LookupKey(Tuple{Int(int64(id)), Null})
					want := id
					if id >= n {
						want = -1
					}
					if got != want {
						errs <- fmt.Errorf("len-%d version: LookupKey(%d) = %d, want %d", n, id, got, want)
						return
					}
				}
				rows := v.Rows()
				if len(rows) != n || rows[n-1][0].AsInt() != int64(n-1) {
					errs <- fmt.Errorf("len-%d version: rows changed", n)
					return
				}
				if c := v.Clone(); c.Len() != n {
					errs <- fmt.Errorf("len-%d version: clone has %d rows", n, c.Len())
					return
				}
			}
		}(v)
	}
	for i := 110; i < 2000; i++ {
		next, err := head.Extend([]Tuple{{Int(int64(i)), Float(float64(i))}})
		if err != nil {
			t.Fatal(err)
		}
		head = next
		if i%200 == 0 {
			// Fork from an old version: a different row under a key the
			// head already holds.
			fork, err := versions[3].Extend([]Tuple{{Int(int64(i - 1)), Float(-1)}})
			if err != nil {
				t.Fatal(err)
			}
			if fork.LookupKey(Tuple{Int(int64(i - 1)), Null}) != versions[3].Len() {
				t.Fatal("fork does not index its own appended row")
			}
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestInsertOnPublishedVersionErrors: once Extend has derived from a
// relation, or produced it, the relation is a published version and only
// Extend may grow it.
func TestInsertOnPublishedVersionErrors(t *testing.T) {
	root := NewRelation("T", chainSchema())
	root.MustInsert(Int(1), Float(1))
	grown, err := root.Extend([]Tuple{{Int(2), Float(2)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Insert(Tuple{Int(3), Float(3)}); err == nil {
		t.Error("Insert on the root after Extend should fail")
	}
	if err := grown.Insert(Tuple{Int(3), Float(3)}); err == nil {
		t.Error("Insert on an extended version should fail")
	}
	if root.Len() != 1 || grown.Len() != 2 {
		t.Fatalf("lens = %d, %d, want 1, 2", root.Len(), grown.Len())
	}
	// A failed first Extend publishes nothing, so Insert still works.
	fresh := NewRelation("T", chainSchema())
	fresh.MustInsert(Int(1), Float(1))
	if _, err := fresh.Extend([]Tuple{{Int(1), Float(9)}}); err == nil {
		t.Fatal("duplicate key should fail")
	}
	if err := fresh.Insert(Tuple{Int(2), Float(2)}); err != nil {
		t.Errorf("Insert after a failed Extend: %v", err)
	}
	// Clones are private copies and accept inserts again.
	if err := grown.Clone().Insert(Tuple{Int(3), Float(3)}); err != nil {
		t.Errorf("Insert on a clone: %v", err)
	}
}

// BenchmarkRelationExtend appends one row per op to the head of a chain
// grown from a 1k- and a 50k-row relation. B/op must not depend on the
// base size. The chain is re-forked from the base outside the timer every
// 4096 appends, which bounds the benchmark's memory.
func BenchmarkRelationExtend(b *testing.B) {
	for _, n := range []int{1000, 50000} {
		b.Run(fmt.Sprintf("base=%d", n), func(b *testing.B) {
			base := NewRelation("T", chainSchema())
			for i := 0; i < n; i++ {
				base.MustInsert(Int(int64(i)), Float(float64(i)))
			}
			b.ReportAllocs()
			b.ResetTimer()
			var head *Relation
			for i := 0; i < b.N; i++ {
				if i%4096 == 0 {
					b.StopTimer()
					var err error
					if head, err = base.Extend([]Tuple{{Int(-1), Float(0)}}); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				next, err := head.Extend([]Tuple{{Int(int64(n + i%4096)), Float(1)}})
				if err != nil {
					b.Fatal(err)
				}
				head = next
			}
		})
	}
}

// BenchmarkRelationInsert builds a 20k-row relation row by row, the path
// every dataset generator and CSV load takes.
func BenchmarkRelationInsert(b *testing.B) {
	const n = 20000
	tuples := make([]Tuple, n)
	for i := range tuples {
		tuples[i] = Tuple{Int(int64(i)), Float(float64(i))}
	}
	schema := chainSchema()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewRelation("T", schema)
		for _, t := range tuples {
			if err := r.Insert(t); err != nil {
				b.Fatal(err)
			}
		}
	}
}
