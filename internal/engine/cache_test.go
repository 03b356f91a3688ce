package engine

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"hyper/internal/dataset"
	"hyper/internal/hyperql"
	"hyper/internal/plan"
	"hyper/internal/relation"
)

func TestCacheLRUEviction(t *testing.T) {
	c := NewCacheBounded(3)
	for i := 0; i < 3; i++ {
		c.Put(kindView, fmt.Sprintf("k%d", i), i)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	// Touch k0 so k1 becomes the LRU entry.
	if _, ok := c.Get(kindView, "k0"); !ok {
		t.Fatal("k0 missing before eviction")
	}
	c.Put(kindView, "k3", 3)
	if _, ok := c.Get(kindView, "k1"); ok {
		t.Error("k1 should have been evicted as LRU")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(kindView, k); !ok {
			t.Errorf("%s should have survived eviction", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", st.Evictions)
	}
	if st.Entries != 3 || st.MaxEntries != 3 {
		t.Errorf("Entries/Max = %d/%d, want 3/3", st.Entries, st.MaxEntries)
	}
}

func TestCacheBoundNeverExceeded(t *testing.T) {
	c := NewCacheBounded(8)
	for i := 0; i < 100; i++ {
		c.Put(kindView, fmt.Sprintf("k%d", i), i)
		if c.Len() > 8 {
			t.Fatalf("after insert %d: Len = %d exceeds bound 8", i, c.Len())
		}
	}
	st := c.Stats()
	if st.Evictions != 92 {
		t.Errorf("Evictions = %d, want 92", st.Evictions)
	}
	// The 8 most recent keys survive, in full.
	for i := 92; i < 100; i++ {
		if _, ok := c.Get(kindView, fmt.Sprintf("k%d", i)); !ok {
			t.Errorf("k%d should be resident", i)
		}
	}
}

func TestCacheUnboundedByDefault(t *testing.T) {
	c := NewCache()
	for i := 0; i < 1000; i++ {
		c.Put(kindView, fmt.Sprintf("k%d", i), i)
	}
	if c.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000 (unbounded)", c.Len())
	}
	if ev := c.Stats().Evictions; ev != 0 {
		t.Errorf("Evictions = %d, want 0", ev)
	}
}

func TestCachePutRefreshesExistingKey(t *testing.T) {
	c := NewCacheBounded(2)
	c.Put(kindView, "a", 1)
	c.Put(kindView, "b", 2)
	c.Put(kindView, "a", 10) // refresh, not insert: b stays, a moves to front
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	v, ok := c.Get(kindView, "a")
	if !ok || v.(int) != 10 {
		t.Errorf("a = %v,%v, want 10,true", v, ok)
	}
	c.Put(kindView, "c", 3) // evicts b (a was refreshed then hit)
	if _, ok := c.Get(kindView, "b"); ok {
		t.Error("b should have been evicted")
	}
}

func TestCacheHitMissCounters(t *testing.T) {
	c := NewCache()
	c.Get(kindView, "absent")
	c.Put(kindView, "k", 1)
	c.Get(kindView, "k")
	c.Get(kindView, "k")
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 2/1", st.Hits, st.Misses)
	}
	if got := st.HitRate(); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("HitRate = %v, want 2/3", got)
	}
	if (CacheStats{}).HitRate() != 0 {
		t.Error("empty HitRate should be 0")
	}
}

// TestCacheMixedKindLRUEviction pins the one-bound contract of a session's
// artifact cache: engine and planner artifacts share one LRU list, so past
// the bound the least recently used entry of any kind is evicted, and each
// kind's lookups land only in its own counters.
func TestCacheMixedKindLRUEviction(t *testing.T) {
	c := NewCacheBounded(4)
	c.Put(kindView, "v", 1)
	c.Put(plan.KindPlan, "p", 2)
	c.Put(plan.KindStats, "s", 3)
	c.Put(plan.KindCols, "c", 4)
	if _, ok := c.Get(kindView, "v"); !ok { // v is now the most recent: p is the LRU
		t.Fatal("view missing before eviction")
	}
	c.Put(kindEst, "e", 5)    // evicts the plan
	c.Put(kindBlocks, "b", 6) // evicts the stats
	for _, k := range []cacheKey{{plan.KindPlan, "p"}, {plan.KindStats, "s"}} {
		if _, ok := c.Get(k.kind, k.key); ok {
			t.Errorf("%c/%s survived past the bound", k.kind, k.key)
		}
	}
	for _, k := range []cacheKey{{kindView, "v"}, {plan.KindCols, "c"}, {kindEst, "e"}, {kindBlocks, "b"}} {
		if _, ok := c.Get(k.kind, k.key); !ok {
			t.Errorf("%c/%s evicted, want resident", k.kind, k.key)
		}
	}
	st, ps := c.Stats(), c.PlanStats()
	if st.Hits != 4 || st.Misses != 0 || st.Evictions != 0 || st.Entries != 3 || st.MaxEntries != 4 {
		t.Errorf("engine stats = %+v, want 4 hits, 0 misses, 0 evictions, 3 entries, bound 4", st)
	}
	if ps.Hits != 0 || ps.Misses != 1 || ps.Evictions != 1 || ps.Entries != 1 {
		t.Errorf("plan stats = %+v, want 0 hits, 1 miss, 1 eviction, 1 entry", ps)
	}
	if c.Len() != st.Entries+ps.Entries {
		t.Errorf("Len = %d, want engine + plan entries %d", c.Len(), st.Entries+ps.Entries)
	}
}

// TestCachePlanKindsShareTheBound drives a plan.Cache over a bounded Cache:
// each WHEN shape stores its plan and its column's stats, so with a bound of
// 3 the third shape evicts the first plan, and plan lookups never move the
// engine's hit/miss counters.
func TestCachePlanKindsShareTheBound(t *testing.T) {
	rel := relation.NewRelation("Items", relation.MustSchema(
		relation.Column{Name: "ID", Key: true},
		relation.Column{Name: "Cat"},
		relation.Column{Name: "Price", Mutable: true},
		relation.Column{Name: "Qty", Mutable: true},
	))
	for i := 0; i < 8; i++ {
		rel.MustInsert(relation.Int(int64(i)), relation.String(string(rune('a'+i%3))),
			relation.Float(float64(10*i)), relation.Int(int64(i%4)))
	}
	db := relation.NewDatabase()
	db.MustAdd(rel)
	c := NewCacheBounded(3)
	pc := plan.NewCache(c)
	shapes := []string{"Cat = 'a'", "Price > 5", "Qty IN (1)"}
	qs := make([]*hyperql.WhatIf, len(shapes))
	for i, s := range shapes {
		q, err := hyperql.ParseWhatIf("USE Items WHEN " + s + " UPDATE(Price) = 1 OUTPUT COUNT(Price = 1)")
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
		if _, hit := pc.WhatIf(db, "v", q, rel); hit {
			t.Fatalf("compile %d reported a hit", i)
		}
	}
	if ps := c.PlanStats(); c.Len() != 3 || ps.Entries != 3 || ps.Evictions != 1 {
		t.Errorf("Len = %d, plan stats = %+v, want 3 entries and 1 eviction (the LRU plan)", c.Len(), ps)
	}
	if _, hit := pc.WhatIf(db, "v", qs[2], rel); !hit {
		t.Error("most recent plan was evicted")
	}
	if _, hit := pc.WhatIf(db, "v", qs[0], rel); hit {
		t.Error("evicted LRU plan still reported a hit")
	}
	ps := c.PlanStats()
	if ps.Hits != 1 || ps.Misses != 4 || ps.Compiles != 4 || ps.Evictions != 2 {
		t.Errorf("plan stats after recompile = %+v, want 1 hit, 4 misses, 4 compiles, 2 evictions", ps)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 || st.MaxEntries != 3 {
		t.Errorf("engine stats = %+v, want no engine lookups or entries, bound 3", st)
	}
}

// TestEstKeyDistinguishesSeeds guards the serving-path invariant that a
// shared session cache never serves an estimator trained under a different
// seed: the seed drives sampling and forest randomness, so it is part of
// the estimator identity.
func TestEstKeyDistinguishesSeeds(t *testing.T) {
	feats := []string{"A", "B"}
	a := estKey("u", "w", "f", feats, Options{Seed: 1, SampleSize: 500})
	b := estKey("u", "w", "f", feats, Options{Seed: 2, SampleSize: 500})
	if a == b {
		t.Error("estKey ignores the seed; cached estimators would leak across seeds")
	}
	if a != estKey("u", "w", "f", feats, Options{Seed: 1, SampleSize: 500}) {
		t.Error("estKey is not deterministic")
	}
}

// TestCacheSharedEvaluate verifies that repeat evaluation through one cache
// reuses the view, blocks and estimator (hits recorded, identical results).
func TestCacheSharedEvaluate(t *testing.T) {
	g := dataset.GermanSyn(3000, 7)
	q, err := hyperql.ParseWhatIf(`USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1) FOR PRE(Age) = 2`)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCacheBounded(64)
	opts := Options{Mode: ModeFull, Seed: 7, Cache: c}
	cold, err := Evaluate(g.DB, g.Model, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if after.Entries == 0 {
		t.Fatal("cold run populated no cache entries")
	}
	warm, err := Evaluate(g.DB, g.Model, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Value != cold.Value {
		t.Errorf("cached result %v != cold result %v", warm.Value, cold.Value)
	}
	st := c.Stats()
	if st.Hits < after.Hits+3 { // view + blocks + estimator
		t.Errorf("warm run recorded %d hits, want >= %d", st.Hits-after.Hits, 3)
	}
}

// TestCacheConcurrentEvaluate hammers one shared cache from many goroutines
// running a mix of what-if queries; run under -race this is the engine-level
// concurrency stress test.
func TestCacheConcurrentEvaluate(t *testing.T) {
	g := dataset.GermanSyn(2000, 7)
	srcs := []string{
		`USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
		`USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1) FOR PRE(Age) = 2`,
		`USE German UPDATE(Savings) = 2 OUTPUT COUNT(Credit = 1)`,
		`USE German UPDATE(Housing) = 1 OUTPUT COUNT(Credit = 1) FOR POST(Credit) = 1 OR PRE(Age) = 1`,
	}
	qs := make([]*hyperql.WhatIf, len(srcs))
	for i, s := range srcs {
		q, err := hyperql.ParseWhatIf(s)
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	// A small bound forces concurrent eviction alongside concurrent reuse;
	// the plans share it.
	c := NewCacheBounded(4)
	pc := plan.NewCache(c)
	want := make([]float64, len(qs))
	for i, q := range qs {
		res, err := Evaluate(g.DB, g.Model, q, Options{Mode: ModeFull, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Value
	}
	const goroutines = 8
	const iters = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				k := (w + it) % len(qs)
				res, err := Evaluate(g.DB, g.Model, qs[k], Options{Mode: ModeFull, Seed: 7, Cache: c, Plans: pc})
				if err != nil {
					errs <- err
					return
				}
				if math.Abs(res.Value-want[k]) > 1e-9 {
					errs <- fmt.Errorf("query %d: got %v want %v", k, res.Value, want[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := c.Len(); n > 4 {
		t.Errorf("bound violated under concurrency: %d entries", n)
	}
}
