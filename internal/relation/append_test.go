package relation

import (
	"strings"
	"testing"
)

// TestRelationExtendSharesPrefix: an extension shares the base's tuples
// and key index, and the base never sees the appended rows.
func TestRelationExtendSharesPrefix(t *testing.T) {
	base, err := ReadCSVKeyed("T", strings.NewReader("ID,V\n1,a\n2,b\n"), []string{"ID"})
	if err != nil {
		t.Fatal(err)
	}
	grown, err := base.Extend([]Tuple{{Int(3), String("c")}})
	if err != nil {
		t.Fatal(err)
	}
	if base.Len() != 2 || grown.Len() != 3 {
		t.Fatalf("lens = %d, %d, want 2, 3", base.Len(), grown.Len())
	}
	// The base's rows are shared by pointer, not copied.
	for i := 0; i < base.Len(); i++ {
		if &base.Row(i)[0] != &grown.Row(i)[0] {
			t.Fatalf("row %d storage not shared", i)
		}
	}
	// Key lookups resolve in both; the new key only in the extension.
	if grown.LookupKey(Tuple{Int(3)}) < 0 {
		t.Error("extended relation should find the appended key")
	}
	if base.LookupKey(Tuple{Int(3)}) >= 0 {
		t.Error("base relation must not see the appended key")
	}
	// Duplicate key and arity violations are rejected.
	if _, err := grown.Extend([]Tuple{{Int(1), String("dup")}}); err == nil {
		t.Error("duplicate key should fail")
	}
	if _, err := grown.Extend([]Tuple{{Int(9)}}); err == nil {
		t.Error("wrong arity should fail")
	}
}

func TestDatabaseExtendVersions(t *testing.T) {
	rel, err := ReadCSVKeyed("T", strings.NewReader("ID,V\n1,a\n"), []string{"ID"})
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	if err := db.Add(rel); err != nil {
		t.Fatal(err)
	}
	db.SetVersion(1)
	v2, err := db.Extend(map[string][]Tuple{"T": {{Int(2), String("b")}}})
	if err != nil {
		t.Fatal(err)
	}
	if db.Version() != 1 || v2.Version() != 2 {
		t.Fatalf("versions = %d, %d, want 1, 2", db.Version(), v2.Version())
	}
	if db.Relation("T").Len() != 1 || v2.Relation("T").Len() != 2 {
		t.Fatalf("rows = %d, %d, want 1, 2", db.Relation("T").Len(), v2.Relation("T").Len())
	}
	// Unknown relation and key conflicts surface as errors, not partial state.
	if _, err := db.Extend(map[string][]Tuple{"Nope": {{Int(1)}}}); err == nil {
		t.Error("unknown relation should fail")
	}
	if _, err := v2.Extend(map[string][]Tuple{"T": {{Int(2), String("dup")}}}); err == nil {
		t.Error("duplicate key should fail")
	}
}

func TestParseAppendRowsSyntheticRowID(t *testing.T) {
	base, err := ReadCSVKeyed("T", strings.NewReader("A,B\n1,x\n2,y\n"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Appended CSVs carry only the data columns; RowID continues from
	// Len()+offset so two batches in one request never collide.
	rows, err := base.ParseAppendRows(strings.NewReader("A,B\n3,z\n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].AsInt() != 2 {
		t.Fatalf("rows = %v, want one row with RowID 2", rows)
	}
	more, err := base.ParseAppendRows(strings.NewReader("A,B\n4,w\n5,v\n"), len(rows))
	if err != nil {
		t.Fatal(err)
	}
	if len(more) != 2 || more[0][0].AsInt() != 3 || more[1][0].AsInt() != 4 {
		t.Fatalf("second batch = %v, want RowIDs 3 and 4", more)
	}
	grown, err := base.Extend(append(rows, more...))
	if err != nil {
		t.Fatal(err)
	}
	if grown.Len() != 5 {
		t.Fatalf("grown len = %d, want 5", grown.Len())
	}
	// Header must match the schema's data columns exactly.
	if _, err := base.ParseAppendRows(strings.NewReader("B,A\n1,2\n"), 0); err == nil {
		t.Error("reordered header should fail")
	}
	if _, err := base.ParseAppendRows(strings.NewReader("A\n1\n"), 0); err == nil {
		t.Error("missing column should fail")
	}
}

func TestParseAppendRowsExplicitKeys(t *testing.T) {
	base, err := ReadCSVKeyed("T", strings.NewReader("ID,V\n1,a\n"), []string{"ID"})
	if err != nil {
		t.Fatal(err)
	}
	// With a natural key the appended CSV carries every column, including
	// the key itself — no synthetic numbering.
	rows, err := base.ParseAppendRows(strings.NewReader("ID,V\n7,b\n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].AsInt() != 7 {
		t.Fatalf("rows = %v, want one row with ID 7", rows)
	}
}
