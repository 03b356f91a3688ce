package engine

import (
	"bytes"
	"strconv"
	"strings"
	"sync"

	"hyper/internal/plan"
)

// Cache is a session's one artifact store. It memoizes the expensive,
// update-constant-independent artifacts of what-if evaluation across related
// queries: the materialized relevant view, the block decomposition, and the
// trained estimator set. The how-to engine evaluates one candidate what-if
// query per permissible update (Definition 7); all candidates for the same
// attribute set share the USE/WHEN/FOR clauses and therefore the same view,
// blocks, features, and training labels — only the prediction point
// changes. Sharing a Cache makes the how-to IP construction train each
// regressor once, matching the paper's "training a regression function over
// the dataset" description of the IP objective (Section 4.3).
//
// A Cache is also the plan.Store behind a plan.Cache built over it
// (plan.NewCache(c)): compiled plans, per-column stats and interned view
// columns live here under their own kinds. One LRU list orders every kind
// together and one bound caps them all, so a long-lived serving process
// (cmd/hyperd, one Cache per session) cannot grow a session's memory
// without limit: past the bound, the least recently used artifact of any
// kind is evicted. Hit/miss/eviction/entry counters are kept per kind;
// Stats reports the engine's kinds and PlanStats the planner's.
//
// All methods are safe for concurrent use. A Cache must only be reused
// across queries against the same database and causal model.
type Cache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	head    *cacheEntry // most recently used
	tail    *cacheEntry // least recently used
	max     int         // maximum entries; 0 = unbounded
	counts  [len(kinds)]kindCounts
}

// cacheKey is an artifact's identity: its kind and its key within the kind.
type cacheKey struct {
	kind byte
	key  string
}

// cacheEntry is a node of the intrusive LRU list.
type cacheEntry struct {
	cacheKey
	slot       int // the kind's index in kinds
	val        any
	prev, next *cacheEntry
}

// kindCounts are the counters of one artifact kind.
type kindCounts struct {
	hits, misses, evictions uint64
	entries                 int
}

// The engine's artifact kinds.
const (
	kindView   byte = 'v'
	kindBlocks byte = 'b'
	kindEst    byte = 'e'
)

// kinds lists every artifact kind in counter-slot order: the engine's three,
// then the planner's.
var kinds = [...]byte{kindView, kindBlocks, kindEst, plan.KindPlan, plan.KindStats, plan.KindCols}

// engineKinds is the number of leading kinds counted by Stats.
const engineKinds = 3

func slotOf(kind byte) int {
	i := bytes.IndexByte(kinds[:], kind)
	if i < 0 {
		panic("engine: unknown artifact kind " + strconv.QuoteRune(rune(kind)))
	}
	return i
}

type blockInfo struct {
	blockOf []int
	nBlocks int
}

// NewCache returns an empty, unbounded cache (the right choice for a single
// how-to evaluation or a short-lived batch of related queries).
func NewCache() *Cache { return NewCacheBounded(0) }

// NewCacheBounded returns an empty cache holding at most max artifacts
// (views, block decompositions, estimator sets, plans, column stats and
// interned view columns each count as one); max <= 0 means unbounded.
// Long-lived daemons should set a bound so the cache cannot grow without
// limit.
func NewCacheBounded(max int) *Cache {
	if max < 0 {
		max = 0
	}
	return &Cache{entries: make(map[cacheKey]*cacheEntry), max: max}
}

// CacheStats is a point-in-time snapshot of cache effectiveness counters.
// Hits, Misses, Evictions and Entries cover views, blocks and estimator
// sets; the planner's kinds are reported by PlanStats.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	// MaxEntries is the configured bound over every kind (0 = unbounded).
	MaxEntries int `json:"max_entries"`
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns a snapshot of the view, blocks and estimator counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{MaxEntries: c.max}
	for _, k := range c.counts[:engineKinds] {
		st.Hits += k.hits
		st.Misses += k.misses
		st.Evictions += k.evictions
		st.Entries += k.entries
	}
	return st
}

// PlanStats returns a snapshot of the planner's counters: hits, misses and
// evictions of compiled plans, and the entries of every planner kind. A
// plan miss always compiles, so Compiles equals Misses.
func (c *Cache) PlanStats() plan.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.counts[slotOf(plan.KindPlan)]
	st := plan.Stats{Hits: p.hits, Misses: p.misses, Evictions: p.evictions, Compiles: p.misses}
	for _, k := range c.counts[engineKinds:] {
		st.Entries += k.entries
	}
	return st
}

// Len returns the current number of cached artifacts of every kind.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Get looks up an artifact, promoting it to most recently used. Get and Put
// make a Cache a plan.Store; kind must be one of the engine's or the
// planner's artifact kinds (any other kind panics).
func (c *Cache) Get(kind byte, key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[cacheKey{kind, key}]
	if !ok {
		c.counts[slotOf(kind)].misses++
		return nil, false
	}
	c.counts[e.slot].hits++
	c.moveToFront(e)
	return e.val, true
}

// Put inserts (or refreshes) an artifact, evicting from the LRU tail past
// the bound.
func (c *Cache) Put(kind byte, key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := cacheKey{kind, key}
	if e, ok := c.entries[k]; ok {
		e.val = val
		c.moveToFront(e)
		return
	}
	e := &cacheEntry{cacheKey: k, slot: slotOf(kind), val: val}
	c.counts[e.slot].entries++
	c.entries[k] = e
	c.pushFront(e)
	for c.max > 0 && len(c.entries) > c.max {
		lru := c.tail
		c.unlink(lru)
		delete(c.entries, lru.cacheKey)
		c.counts[lru.slot].entries--
		c.counts[lru.slot].evictions++
	}
}

func (c *Cache) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) moveToFront(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *Cache) getView(key string) (*view, bool) {
	v, ok := c.Get(kindView, key)
	if !ok {
		return nil, false
	}
	return v.(*view), true
}

func (c *Cache) putView(key string, v *view) { c.Put(kindView, key, v) }

func (c *Cache) getBlocks(key string) (blockInfo, bool) {
	b, ok := c.Get(kindBlocks, key)
	if !ok {
		return blockInfo{}, false
	}
	return b.(blockInfo), true
}

func (c *Cache) putBlocks(key string, b blockInfo) { c.Put(kindBlocks, key, b) }

func (c *Cache) getEst(key string) (*estimatorSet, bool) {
	e, ok := c.Get(kindEst, key)
	if !ok {
		return nil, false
	}
	return e.(*estimatorSet), true
}

func (c *Cache) putEst(key string, e *estimatorSet) { c.Put(kindEst, key, e) }

// estKey builds the identity of an estimator set: everything that affects
// training except the update constants.
func estKey(useKey, whenKey, forKey string, featCols []string, o Options) string {
	var b strings.Builder
	b.WriteString(useKey)
	b.WriteByte('\x00')
	b.WriteString(whenKey)
	b.WriteByte('\x00')
	b.WriteString(forKey)
	b.WriteByte('\x00')
	for _, f := range featCols {
		b.WriteString(f)
		b.WriteByte(',')
	}
	b.WriteByte('\x00')
	b.WriteString(string(rune('0' + int(o.Mode))))
	b.WriteString("|")
	b.WriteString(string(rune('a' + o.Estimator)))
	if o.SampleSize > 0 {
		b.WriteString("|s")
		for n := o.SampleSize; n > 0; n /= 10 {
			b.WriteByte(byte('0' + n%10))
		}
	}
	// The seed drives training-sample selection and forest randomness, so
	// estimators trained under different seeds are distinct artifacts (a
	// long-lived session cache must not serve a stale-seed estimator after
	// SetOptions changes the seed).
	b.WriteString("|r")
	b.WriteString(strconv.FormatInt(o.Seed, 10))
	// The shard granularity fixes the reduction tree of per-shard estimator
	// fits, so indexes fitted under different granularities are distinct
	// artifacts (withDefaults normalizes 0 to the default granularity, so
	// equal plans share one key). The worker fan-out (Shards) deliberately
	// does not participate: it cannot change a fitted model.
	b.WriteString("|g")
	b.WriteString(strconv.Itoa(o.ShardRows))
	return b.String()
}
