package ml

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"hyper/internal/relation"
	"hyper/internal/shard"
)

// digestRel builds a relation with every value-kind wrinkle the stats path
// handles: nulls, NaNs, mixed magnitudes, a non-numeric column, and an
// untyped column mixing ints with floats (whole and fractional) on both
// sides of the 1e15 key-exactness threshold.
func digestRel(t *testing.T, n int) *relation.Relation {
	t.Helper()
	rel := relation.NewRelation("D", relation.MustSchema(
		relation.Column{Name: "ID", Kind: relation.KindInt, Key: true},
		relation.Column{Name: "Num", Kind: relation.KindFloat, Mutable: true},
		relation.Column{Name: "Cat", Kind: relation.KindString, Mutable: true},
		relation.Column{Name: "Sparse", Kind: relation.KindFloat, Mutable: true},
		relation.Column{Name: "Wide", Mutable: true},
	))
	for i := 0; i < n; i++ {
		num := relation.Float(float64(i%17) - 8.5)
		if i%23 == 0 {
			num = relation.Float(math.NaN())
		}
		sparse := relation.Null
		if i%5 == 0 {
			sparse = relation.Float(float64(i) * 1e3)
		}
		var wide relation.Value
		switch {
		case i%31 == 0:
			wide = relation.Null
		case i%29 == 0:
			wide = relation.Float(math.NaN())
		case i%4 == 0:
			wide = relation.Int(int64(i) * 1e13)
		case i%4 == 1:
			wide = relation.Float(float64(i % 11))
		case i%4 == 2:
			wide = relation.Float(2e15 + float64(i) + 0.5)
		default:
			wide = relation.Int(int64(i % 11))
		}
		row := relation.Tuple{
			relation.Int(int64(i)),
			num,
			relation.String(fmt.Sprintf("c%d", i%7)),
			sparse,
			wide,
		}
		if err := rel.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return rel
}

// statsEqual compares ColumnStats with NaN-aware float equality (NaN != NaN
// under ==, but digest merges must preserve NaN mins/maxes bit for bit).
func statsEqual(a, b []ColumnStats) bool {
	if len(a) != len(b) {
		return false
	}
	norm := func(s ColumnStats) ColumnStats {
		fix := func(f float64) float64 {
			if math.IsNaN(f) {
				return math.Inf(-1) // canonical stand-in for comparison only
			}
			return f
		}
		s.NullFrac = fix(s.NullFrac)
		s.MaxAbs = fix(s.MaxAbs)
		s.Min = fix(s.Min)
		s.Max = fix(s.Max)
		return s
	}
	for i := range a {
		na, nb := norm(a[i]), norm(b[i])
		if math.IsNaN(a[i].Min) != math.IsNaN(b[i].Min) || math.IsNaN(a[i].Max) != math.IsNaN(b[i].Max) {
			return false
		}
		if !reflect.DeepEqual(na, nb) {
			return false
		}
	}
	return true
}

// TestRelationDigestMatchesCollectStats is the core parity contract: a
// digest advanced over any append schedule must render exactly the stats a
// fresh whole-relation CollectStats computes, whatever the shard size and
// however the per-shard digests were grown and merged.
func TestRelationDigestMatchesCollectStats(t *testing.T) {
	full := digestRel(t, 500)
	for _, target := range []int{1, 7, 64, 500, 1000} {
		d := NewRelationDigest(target)
		// Grow the relation in uneven steps, advancing after each.
		for _, upto := range []int{1, 2, 63, 64, 65, 200, 499, 500} {
			prefix := relation.NewRelation("D", full.Schema())
			for i := 0; i < upto; i++ {
				if err := prefix.Insert(full.Row(i)); err != nil {
					t.Fatal(err)
				}
			}
			d.Advance(prefix)
			if got, want := d.Stats(), CollectStats(prefix); !statsEqual(got, want) {
				t.Fatalf("target=%d rows=%d: digest stats diverge\n got %+v\nwant %+v", target, upto, got, want)
			}
			if d.FittedRows() != upto {
				t.Fatalf("target=%d rows=%d: FittedRows = %d", target, upto, d.FittedRows())
			}
		}
	}
}

// TestColumnStatsOfMatchesCollectStats pins the single-column scan the
// planner uses against the whole-relation summary, column by column, over
// every value-kind wrinkle of digestRel.
func TestColumnStatsOfMatchesCollectStats(t *testing.T) {
	rel := digestRel(t, 500)
	all := CollectStats(rel)
	if len(all) != len(rel.Schema().Columns()) {
		t.Fatalf("CollectStats returned %d columns, want %d", len(all), len(rel.Schema().Columns()))
	}
	for i, want := range all {
		if got := ColumnStatsOf(rel, i); !reflect.DeepEqual(got, want) {
			t.Errorf("column %d (%s): ColumnStatsOf = %+v, CollectStats = %+v", i, want.Name, got, want)
		}
	}
	wide := all[len(all)-1]
	if !wide.Numeric || !wide.HasNaN || wide.NullFrac == 0 || wide.MaxAbs < 1e15 {
		t.Fatalf("Wide column lost a wrinkle: %+v", wide)
	}
}

// TestRelationDigestSealsShards pins the incremental contract: advancing
// over appended rows fits only the tail shards the new rows touch, and
// every shard sealed by an earlier advance is counted reused, not refit.
func TestRelationDigestSealsShards(t *testing.T) {
	full := digestRel(t, 300)
	const target = 100
	d := NewRelationDigest(target)

	prefix := relation.NewRelation("D", full.Schema())
	grow := func(upto int) {
		t.Helper()
		for i := prefix.Len(); i < upto; i++ {
			if err := prefix.Insert(full.Row(i)); err != nil {
				t.Fatal(err)
			}
		}
	}

	grow(150)
	fitted, reused := d.Advance(prefix)
	if fitted != 2 || reused != 0 {
		t.Fatalf("first advance: fitted=%d reused=%d, want 2, 0", fitted, reused)
	}
	// 50 more rows: shard [100,200) is still open (grows in place), shard
	// [0,100) is sealed and must not be rescanned.
	grow(200)
	fitted, reused = d.Advance(prefix)
	if fitted != 1 || reused != 1 {
		t.Fatalf("tail advance: fitted=%d reused=%d, want 1, 1", fitted, reused)
	}
	// No new rows: everything is sealed.
	fitted, reused = d.Advance(prefix)
	if fitted != 0 || reused != 2 {
		t.Fatalf("no-op advance: fitted=%d reused=%d, want 0, 2", fitted, reused)
	}
	grow(300)
	fitted, reused = d.Advance(prefix)
	if fitted != 1 || reused != 2 {
		t.Fatalf("new shard advance: fitted=%d reused=%d, want 1, 2", fitted, reused)
	}
	if got, want := d.Stats(), CollectStats(prefix); !statsEqual(got, want) {
		t.Fatalf("after sealed advances: digest stats diverge\n got %+v\nwant %+v", got, want)
	}
}

// TestStridedPrefixStability is why digests shard with Strided rather than
// Rows: growing n must never move an existing shard boundary, only extend
// the last shard or add new ones.
func TestStridedPrefixStability(t *testing.T) {
	const target = 64
	for n := 1; n < 1000; n += 13 {
		p, q := shard.Strided(n, target), shard.Strided(n+target+3, target)
		for i := 0; i < p.Shards(); i++ {
			lo, hi := p.Bounds(i)
			qlo, qhi := q.Bounds(i)
			if lo != qlo {
				t.Fatalf("n=%d shard %d: lo moved %d -> %d", n, i, lo, qlo)
			}
			// Only the last shard of p may have been extended.
			if i < p.Shards()-1 && hi != qhi {
				t.Fatalf("n=%d shard %d: sealed hi moved %d -> %d", n, i, hi, qhi)
			}
		}
	}
}
