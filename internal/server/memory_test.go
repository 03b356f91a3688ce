package server

import (
	"net/http/httptest"
	"runtime"
	"testing"
)

// liveHeap returns HeapAlloc after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestAppendHeapGrowthIsPerDelta holds the memory cost of a published
// version to the size of its delta: a 50k-row session takes 200 one-row
// appends, every version stays published, and the live heap may grow by at
// most 64 KB per append. A version that copied the row index or the key
// map would cost megabytes each. The budget is checked every 25 appends so
// a regression fails after a bounded amount of garbage.
func TestAppendHeapGrowthIsPerDelta(t *testing.T) {
	const (
		baseRows  = 50000
		appends   = 200
		perAppend = 64 << 10
	)
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	createLoansSession(t, ts.URL, "mem", baseRows)
	// The first append creates the relation's chain and stats digest; the
	// budget covers the steady state after it.
	appendLoans(t, ts.URL, "mem", baseRows, baseRows+1)
	before := liveHeap()
	for i := 1; i <= appends; i++ {
		lo := baseRows + i
		if resp := appendLoans(t, ts.URL, "mem", lo, lo+1); resp.Rows != lo+1 {
			t.Fatalf("append %d: rows = %d, want %d", i, resp.Rows, lo+1)
		}
		if i%25 != 0 {
			continue
		}
		grown := int64(liveHeap()) - int64(before)
		t.Logf("after %d appends: heap +%d KB", i, grown>>10)
		if grown > int64(i)*perAppend {
			t.Fatalf("live heap grew %d KB over %d appends (%d KB each), budget %d KB per append",
				grown>>10, i, grown/int64(i)>>10, perAppend>>10)
		}
	}
}
