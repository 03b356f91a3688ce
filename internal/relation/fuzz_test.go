package relation

import (
	"strings"
	"testing"
)

// fuzzKeys maps a fuzzed key argument to ReadCSVKeyed's keys: "" declares
// none (a synthetic RowID key), anything else is split on commas.
func fuzzKeys(key string) []string {
	if key == "" {
		return nil
	}
	return strings.Split(key, ",")
}

// checkKeyed holds a relation to the invariants every loaded or extended
// version keeps: each row has the schema's arity, and each row's key looks
// up to that row.
func checkKeyed(t *testing.T, r *Relation) {
	t.Helper()
	if len(r.Schema().KeyIndexes()) == 0 {
		t.Fatal("keyed relation has no key columns")
	}
	for i, row := range r.Rows() {
		if len(row) != r.Schema().Len() {
			t.Fatalf("row %d has arity %d, schema %d", i, len(row), r.Schema().Len())
		}
		if got := r.LookupKey(row); got != i {
			t.Fatalf("LookupKey(row %d) = %d", i, got)
		}
	}
}

// FuzzReadCSVKeyed feeds hostile CSV bodies and key lists to the loader
// behind session creation. The contract: an error or a valid keyed
// relation, never a panic.
func FuzzReadCSVKeyed(f *testing.F) {
	f.Add("A,B\n1,x\n1,x\n2,y\n", "")
	f.Add("ID,V\n1,a\n2,b\n", "ID")
	f.Add("ID,V\n1,a\n1,b\n", "ID")
	f.Add("ID,V\n1,a\n", "Nope")
	f.Add("RowID,V\n1,a\n", "")
	f.Add("A,B\n1\n2,3,4\n\"x\n", "A,B")
	f.Fuzz(func(t *testing.T, data, key string) {
		r, err := ReadCSVKeyed("T", strings.NewReader(data), fuzzKeys(key))
		if err != nil {
			return
		}
		checkKeyed(t, r)
	})
}

// FuzzParseAppendRows feeds hostile append bodies to the parser behind
// POST .../rows, against a base relation loaded the way sessions load
// theirs. The contract: parsing errors or returns tuples, never panics;
// when it succeeds, Extend of the parsed rows either errors or yields
// exactly Len()+n rows, and leaves the base untouched.
func FuzzParseAppendRows(f *testing.F) {
	f.Add("ID,V\n1,a\n2,b\n", "ID", "ID,V\n3,c\n", 0)
	f.Add("ID,V\n1,a\n2,b\n", "ID", "ID,V\n1,dup\n", 0)
	f.Add("A,B\n1,x\n2,y\n", "", "A,B\n3,z\n", 0)
	f.Add("A,B\n1,x\n2,y\n", "", "A,B\n4,w\n5,v\n", 1)
	f.Add("A,B\n1,x\n2,y\n", "", "B,A\n1,2\n", 0)
	f.Add("A,B\n1,x\n2,y\n", "", "A\n1\n", 0)
	f.Add("ID,V\n1,a\n", "ID", "ID,V\n7,b\n", 0)
	f.Add("ID,V\n1,2\n", "ID", "ID,V\n2,notanumber\n", 0)
	f.Fuzz(func(t *testing.T, base, key, body string, offset int) {
		r, err := ReadCSVKeyed("T", strings.NewReader(base), fuzzKeys(key))
		if err != nil {
			return
		}
		if offset < 0 || offset > 1<<20 {
			offset = 0
		}
		tuples, err := r.ParseAppendRows(strings.NewReader(body), offset)
		if err != nil {
			return
		}
		n := r.Len()
		grown, err := r.Extend(tuples)
		if r.Len() != n {
			t.Fatalf("Extend changed the base length from %d to %d", n, r.Len())
		}
		if err != nil {
			return
		}
		if grown.Len() != n+len(tuples) {
			t.Fatalf("extended length %d, want %d+%d", grown.Len(), n, len(tuples))
		}
		checkKeyed(t, grown)
	})
}
