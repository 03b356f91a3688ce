package relation

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Tuple is one row of a relation; index i holds the value of schema column i.
type Tuple []Value

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// Relation is a named table: a schema plus an ordered set of tuples. Tuple
// order is deterministic (insertion order) so that all algorithms downstream
// are reproducible; set semantics are enforced on primary keys only.
//
// A relation is built with Insert and published by its first Extend. Every
// version Extend derives shares one append-only chain: a version is the
// clipped prefix chain.rows[:n:n] plus the chain's key index, read only
// below n. Published versions are immutable; Insert on one is an error.
type Relation struct {
	name   string
	schema *Schema
	rows   []Tuple
	// keyset maps key encodings to row indexes. Until publication it is
	// the relation's private index; once published it is frozen, and on a
	// chained version it is the chain's base index.
	keyset    map[string]int
	chain     *chain // nil until the relation is derived by Extend
	published atomic.Bool
}

// chain is the append-only row storage every version of one relation
// shares. Its key index has two parts: base, the frozen index of the root
// relation the chain grew from, read without a lock; and keys, the index of
// every row appended since, guarded by mu. Only Extend writes, and only on
// the head version (the one whose length equals len(rows)); extending any
// other version forks a new chain, so a published prefix never changes.
type chain struct {
	base map[string]int

	mu   sync.RWMutex
	rows []Tuple
	keys map[string]int
}

// NewRelation creates an empty relation with the given name and schema.
func NewRelation(name string, schema *Schema) *Relation {
	return &Relation{name: name, schema: schema, keyset: make(map[string]int)}
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Schema returns the relation schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.rows) }

// Row returns the i-th tuple (not a copy; callers must not mutate it).
func (r *Relation) Row(i int) Tuple { return r.rows[i] }

// Rows returns the underlying tuple slice (not a copy).
func (r *Relation) Rows() []Tuple { return r.rows }

// keyOf encodes the primary-key attributes of t. With no declared key, the
// whole tuple is the key.
func (r *Relation) keyOf(t Tuple) string {
	idx := r.schema.KeyIndexes()
	var b strings.Builder
	if len(idx) == 0 {
		for _, v := range t {
			b.WriteString(v.Key())
			b.WriteByte('|')
		}
		return b.String()
	}
	for _, i := range idx {
		b.WriteString(t[i].Key())
		b.WriteByte('|')
	}
	return b.String()
}

// Insert appends a tuple. It validates arity and kinds (coercing where a
// standard conversion exists) and rejects duplicate primary keys. A
// published relation (one that Extend has derived from or produced) is
// immutable, and Insert on it is an error.
func (r *Relation) Insert(t Tuple) error {
	if r.published.Load() {
		return fmt.Errorf("relation %s: cannot insert into a published version; use Extend", r.name)
	}
	row, err := r.coerce(t)
	if err != nil {
		return err
	}
	k := r.keyOf(row)
	if _, dup := r.keyset[k]; dup {
		return fmt.Errorf("relation %s: duplicate primary key %v", r.name, row)
	}
	r.keyset[k] = len(r.rows)
	r.rows = append(r.rows, row)
	return nil
}

// coerce validates t's arity and kinds against the schema and returns the
// row to store, with values coerced where a standard conversion exists.
func (r *Relation) coerce(t Tuple) (Tuple, error) {
	if len(t) != r.schema.Len() {
		return nil, fmt.Errorf("relation %s: tuple arity %d != schema arity %d", r.name, len(t), r.schema.Len())
	}
	row := make(Tuple, len(t))
	for i, v := range t {
		want := r.schema.Col(i).Kind
		if want == KindNull || v.IsNull() || v.Kind() == want {
			row[i] = v
			continue
		}
		c := Coerce(v, want)
		if c.IsNull() {
			return nil, fmt.Errorf("relation %s: column %s: cannot coerce %s %q to %s",
				r.name, r.schema.Col(i).Name, v.Kind(), v.String(), want)
		}
		row[i] = c
	}
	return row, nil
}

// MustInsert inserts and panics on error; for generators and tests.
func (r *Relation) MustInsert(vals ...Value) {
	if err := r.Insert(Tuple(vals)); err != nil {
		panic(err)
	}
}

// Extend returns a new version holding this relation's rows plus the given
// tuples, validated under exactly the Insert rules: arity, kind coercion,
// and primary-key uniqueness against the full (old + new) row set. The
// receiver is never mutated and a failed batch publishes nothing.
//
// Extend costs O(len(tuples)): the batch is staged privately, then appended
// to the receiver's shared chain when the receiver is its head. Extending a
// relation that has no chain yet, or a version that is no longer the head
// (one that an earlier Extend already grew), forks a new chain holding a
// copy of the receiver's row pointers; tuple storage is always shared.
func (r *Relation) Extend(tuples []Tuple) (*Relation, error) {
	rows := make([]Tuple, len(tuples))
	keys := make([]string, len(tuples))
	batch := make(map[string]struct{}, len(tuples))
	for i, t := range tuples {
		row, err := r.coerce(t)
		if err != nil {
			return nil, err
		}
		k := r.keyOf(row)
		if _, dup := batch[k]; dup {
			return nil, fmt.Errorf("relation %s: duplicate primary key %v", r.name, row)
		}
		batch[k] = struct{}{}
		rows[i], keys[i] = row, k
	}
	if c := r.chain; c != nil {
		c.mu.Lock()
		if len(c.rows) == len(r.rows) {
			defer c.mu.Unlock()
			return r.commit(c, rows, keys)
		}
		c.mu.Unlock()
	}
	c := r.fork()
	c.mu.Lock()
	defer c.mu.Unlock()
	out, err := r.commit(c, rows, keys)
	if err == nil {
		r.published.Store(true)
	}
	return out, err
}

// fork returns a new chain whose head is a copy of r: the base index is
// shared (it is frozen), appended keys below r's length are copied, and
// the row pointers are clipped so the first append reallocates.
func (r *Relation) fork() *chain {
	n := len(r.rows)
	c := &chain{base: r.keyset, rows: r.rows[:n:n], keys: make(map[string]int)}
	if old := r.chain; old != nil {
		old.mu.RLock()
		for k, i := range old.keys {
			if i < n {
				c.keys[k] = i
			}
		}
		old.mu.RUnlock()
	}
	return c
}

// commit appends a staged batch to chain c, whose head r must be, under c's
// write lock. Keys are checked against the whole index before anything is
// written, so a conflicting batch leaves the chain untouched.
func (r *Relation) commit(c *chain, rows []Tuple, keys []string) (*Relation, error) {
	for i, k := range keys {
		_, inBase := c.base[k]
		_, inKeys := c.keys[k]
		if inBase || inKeys {
			return nil, fmt.Errorf("relation %s: duplicate primary key %v", r.name, rows[i])
		}
	}
	n := len(c.rows)
	for i, k := range keys {
		c.keys[k] = n + i
	}
	c.rows = append(c.rows, rows...)
	out := &Relation{name: r.name, schema: r.schema, rows: c.rows[:len(c.rows):len(c.rows)], keyset: c.base, chain: c}
	out.published.Store(true)
	return out, nil
}

// LookupKey returns the row index of the tuple whose primary key matches the
// key attributes of t, or -1. On a chained version, rows appended after it
// are invisible: only indexes below Len() are returned.
func (r *Relation) LookupKey(t Tuple) int {
	k := r.keyOf(t)
	i, ok := r.keyset[k]
	if !ok && r.chain != nil {
		r.chain.mu.RLock()
		i, ok = r.chain.keys[k]
		r.chain.mu.RUnlock()
	}
	if ok && i < len(r.rows) {
		return i
	}
	return -1
}

// Value returns the value of the named column in row i.
func (r *Relation) Value(i int, col string) Value {
	return r.rows[i][r.schema.MustIndex(col)]
}

// Column returns all values of the named column in row order.
func (r *Relation) Column(col string) []Value {
	ci := r.schema.MustIndex(col)
	out := make([]Value, len(r.rows))
	for i, row := range r.rows {
		out[i] = row[ci]
	}
	return out
}

// Domain returns the distinct values of the named column sorted by Compare.
func (r *Relation) Domain(col string) []Value {
	ci := r.schema.MustIndex(col)
	seen := make(map[string]Value)
	for _, row := range r.rows {
		seen[row[ci].Key()] = row[ci]
	}
	out := make([]Value, 0, len(seen))
	for _, v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// MinMax returns the minimum and maximum of a numeric column, ignoring NULLs.
// ok is false when the column has no numeric values.
func (r *Relation) MinMax(col string) (min, max float64, ok bool) {
	ci := r.schema.MustIndex(col)
	for _, row := range r.rows {
		v := row[ci]
		if !v.Kind().Numeric() {
			continue
		}
		f := v.AsFloat()
		if !ok {
			min, max, ok = f, f, true
			continue
		}
		if f < min {
			min = f
		}
		if f > max {
			max = f
		}
	}
	return min, max, ok
}

// Filter returns a new relation (same name and schema) holding the rows for
// which keep returns true.
func (r *Relation) Filter(keep func(Tuple) bool) *Relation {
	out := NewRelation(r.name, r.schema)
	for _, row := range r.rows {
		if keep(row) {
			out.rows = append(out.rows, row)
			out.keyset[out.keyOf(row)] = len(out.rows) - 1
		}
	}
	return out
}

// Clone returns a deep copy of the relation; tuples are copied so the clone
// can be mutated independently (used to materialize possible worlds). The
// clone is unpublished and indexes only this version's keys.
func (r *Relation) Clone() *Relation {
	out := NewRelation(r.name, r.schema)
	out.rows = make([]Tuple, len(r.rows))
	for i, row := range r.rows {
		out.rows[i] = row.Clone()
	}
	for k, v := range r.keyset {
		out.keyset[k] = v
	}
	if c := r.chain; c != nil {
		n := len(r.rows)
		c.mu.RLock()
		for k, v := range c.keys {
			if v < n {
				out.keyset[k] = v
			}
		}
		c.mu.RUnlock()
	}
	return out
}

// Set overwrites the value of the named column in row i. Key columns are
// immutable and attempting to change one is an error.
func (r *Relation) Set(i int, col string, v Value) error {
	ci := r.schema.MustIndex(col)
	if r.schema.Col(ci).Key {
		return fmt.Errorf("relation %s: column %s is a key and immutable", r.name, col)
	}
	r.rows[i][ci] = v
	return nil
}

// Sample returns a new relation containing the rows at the given indexes.
func (r *Relation) Sample(indexes []int) *Relation {
	out := NewRelation(r.name, r.schema)
	for _, i := range indexes {
		row := r.rows[i]
		out.rows = append(out.rows, row)
		out.keyset[out.keyOf(row)] = len(out.rows) - 1
	}
	return out
}

// String renders a small ASCII table (up to 12 rows) for debugging.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s) [%d rows]\n", r.name, strings.Join(r.schema.Names(), ", "), len(r.rows))
	n := len(r.rows)
	if n > 12 {
		n = 12
	}
	for i := 0; i < n; i++ {
		parts := make([]string, len(r.rows[i]))
		for j, v := range r.rows[i] {
			parts[j] = v.String()
		}
		b.WriteString("  " + strings.Join(parts, ", ") + "\n")
	}
	if n < len(r.rows) {
		b.WriteString("  ...\n")
	}
	return b.String()
}
