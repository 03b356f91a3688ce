package plan

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hyper/internal/hyperql"
	"hyper/internal/ml"
	"hyper/internal/relation"
)

// Cache is the fingerprint-keyed plan cache: compiled what-if plans keyed
// by shape fingerprint over the schema signature, plus the supporting
// artifacts they execute against (per-view interned columns, and per-column
// stats). Stats are collected on demand, one column at a time, only for the
// columns a query reads: the WHEN columns of a what-if (keyed by data
// identity + view + column) and the HOWTOUPDATE attributes of a how-to
// (keyed by data identity + base relation + column). A WHEN-less what-if
// scans nothing.
//
// A Cache keeps no artifacts of its own: it reads and writes them through a
// Store, which in a session is the session's engine.Cache. Plans then share
// that cache's one LRU list and one bound with views, blocks and estimator
// sets, so a long-lived session cannot grow the planner's memory without
// limit, and the store counts plan lookups (engine.Cache.PlanStats).
//
// Cache identity is fingerprint + schema signature: hyperql.Fingerprint
// hashes the signature into the key's domain, so a structurally identical
// query against a re-uploaded database with a different schema can never be
// served a stale pushdown program.
//
// All methods are safe for concurrent use. Like engine.Cache, a Cache must
// only be shared across queries against the same database.
type Cache struct {
	store Store

	mu        sync.Mutex
	onCompile func(ms float64)
}

// Store holds a Cache's artifacts. Every key comes with its artifact kind
// (KindPlan, KindStats or KindCols); keys of different kinds never collide.
// engine.Cache implements it. Implementations must be safe for concurrent
// use.
type Store interface {
	// Get looks an artifact up (promoting it, in an LRU store).
	Get(kind byte, key string) (any, bool)
	// Put inserts or replaces an artifact.
	Put(kind byte, key string, val any)
}

// Artifact kinds a Cache stores.
const (
	KindPlan  byte = 'p' // a *WhatIfPlan, keyed by fingerprint
	KindStats byte = 's' // one column's ml.ColumnStats, keyed by scope + column
	KindCols  byte = 'c' // one view's interned columns, keyed by scope
)

// NewCache returns a plan cache keeping its artifacts in store.
func NewCache(store Store) *Cache { return &Cache{store: store} }

// SetCompileObserver installs a callback invoked with each plan compilation
// latency in milliseconds (the serving layer feeds its histogram through
// it). Pass nil to remove. Observers must be safe for concurrent use.
func (c *Cache) SetCompileObserver(fn func(ms float64)) {
	c.mu.Lock()
	c.onCompile = fn
	c.mu.Unlock()
}

// Stats is a point-in-time snapshot of plan-cache counters (see
// engine.Cache.PlanStats).
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Compiles counts plan compilations (misses that built a plan).
	Compiles uint64 `json:"compiles"`
	// Entries counts plans, column stats and interned columns together.
	Entries int `json:"entries"`
}

// dataKey is the cache-identity string of a database: the schema signature,
// plus — for MVCC-versioned instances — the snapshot version. Version 0 (the
// bare-library default) keeps the historical identity so plan goldens and
// unversioned callers are untouched; any non-zero version makes every
// fingerprint and supporting-artifact key version-specific, so a query
// pinned "as of v" keeps hitting v's artifacts after appends while the new
// head can never be served stale stats.
func dataKey(db *relation.Database) string {
	sig := Signature(db)
	if v := db.Version(); v > 0 {
		return sig + "\x00@v" + strconv.FormatInt(v, 10)
	}
	return sig
}

// Signature canonically describes a database schema: every relation in
// database order with its column names and kinds. It is the second half of
// plan-cache identity (the first being the query shape fingerprint).
func Signature(db *relation.Database) string {
	var b strings.Builder
	for _, name := range db.Names() {
		rel := db.Relation(name)
		b.WriteString(name)
		b.WriteByte('(')
		for i, col := range rel.Schema().Columns() {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(col.Name)
			b.WriteByte(':')
			b.WriteString(col.Kind.String())
		}
		b.WriteByte(')')
	}
	return b.String()
}

// Fingerprint returns the 16-hex shape fingerprint keying q's plan in a
// cache over db — hyperql.Fingerprint with the schema signature (and, for
// versioned databases, the snapshot version) folded into the hash domain.
func Fingerprint(db *relation.Database, q hyperql.Query) string {
	return hyperql.Fingerprint("plan\x00"+dataKey(db), q)
}

// WhatIf returns the compiled plan for q against the resolved relevant view
// rel (compiling and caching on miss) and whether it was a cache hit.
// viewKey is the engine's view cache key; the plan's supporting artifacts
// (WHEN column stats, interned columns) are stored under it.
func (c *Cache) WhatIf(db *relation.Database, viewKey string, q *hyperql.WhatIf, rel *relation.Relation) (*WhatIfPlan, bool) {
	sig := dataKey(db)
	fp := hyperql.Fingerprint("plan\x00"+sig, q)
	if v, ok := c.store.Get(KindPlan, fp); ok {
		return v.(*WhatIfPlan), true
	}
	start := time.Now()
	scope := sig + "\x00" + viewKey
	p := compileWhatIf(q, fp, rel, func(col string) (ml.ColumnStats, bool) {
		return c.colStats(scope, rel, col)
	})
	p.colsKey = scope
	c.store.Put(KindPlan, fp, p)
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	c.mu.Lock()
	obs := c.onCompile
	c.mu.Unlock()
	if obs != nil {
		obs(ms)
	}
	return p, false
}

// Apply executes p's WHEN program over rel into inS (len rel.Len()),
// re-binding literals from q. It reports the number of conjuncts run as
// columnar scans and whether the program applied; ok=false (a defensive
// bind mismatch) leaves inS unspecified and the caller must fall back to
// the row-at-a-time loop.
func (c *Cache) Apply(p *WhatIfPlan, q *hyperql.WhatIf, rel *relation.Relation, inS []bool) (pushed int, ok bool) {
	if p == nil || p.Fallback || len(inS) != rel.Len() {
		return 0, false
	}
	vc := c.columns(p.colsKey)
	pushed, err := p.apply(q.When, rel, vc, inS)
	if err != nil {
		return 0, false
	}
	return pushed, true
}

// colStats memoizes the stats of one column of rel under scope (data
// identity plus the view or base relation rel stands for). ok is false when
// rel has no such column.
func (c *Cache) colStats(scope string, rel *relation.Relation, col string) (st ml.ColumnStats, ok bool) {
	ci, ok := rel.Schema().Index(col)
	if !ok {
		return st, false
	}
	key := scope + "\x00" + col
	if v, hit := c.store.Get(KindStats, key); hit {
		return v.(ml.ColumnStats), true
	}
	st = ml.ColumnStatsOf(rel, ci)
	c.store.Put(KindStats, key, st)
	return st, true
}

// columns returns the interned-column store for a view, creating it on
// first use.
func (c *Cache) columns(key string) *viewColumns {
	if v, ok := c.store.Get(KindCols, key); ok {
		return v.(*viewColumns)
	}
	vc := &viewColumns{}
	c.store.Put(KindCols, key, vc)
	return vc
}

// AttrRank orders HOWTOUPDATE attributes for candidate scoring by ascending
// base-relation cardinality (most selective attribute first — its frequency
// estimators are cheapest and its candidates prune fastest), original order
// breaking ties. It returns nil — meaning "keep the query order" — when the
// USE clause is a sub-select (no base relation to collect stats from) or an
// attribute is missing. Only the ranked attributes' stats are collected,
// memoized per (data identity, relation, column).
func (c *Cache) AttrRank(db *relation.Database, use *hyperql.UseClause, attrs []string) map[string]int {
	if use == nil || use.Table == "" {
		return nil
	}
	rel := db.Relation(use.Table)
	if rel == nil {
		return nil
	}
	scope := dataKey(db) + "\x00" + use.Table
	card := make(map[string]int, len(attrs))
	for _, a := range attrs {
		st, ok := c.colStats(scope, rel, a)
		if !ok {
			return nil
		}
		card[a] = st.Card
	}
	order := make([]string, len(attrs))
	copy(order, attrs)
	sort.SliceStable(order, func(i, j int) bool {
		return card[order[i]] < card[order[j]]
	})
	rank := make(map[string]int, len(order))
	for i, a := range order {
		rank[a] = i
	}
	return rank
}
