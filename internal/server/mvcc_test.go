package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// loansRow renders row i of the deterministic synthetic Loans table the
// MVCC tests grow. Any prefix [0,n) of these rows is reproducible, which is
// what lets a fresh session stand in as the golden for a pinned snapshot.
func loansRow(i int) string {
	return fmt.Sprintf("%d,%d,%d", i%4, (i/2)%3, (i+i/5)%2)
}

func loansCSV(lo, hi int) string {
	var b strings.Builder
	b.WriteString("Status,Savings,Credit\n")
	for i := lo; i < hi; i++ {
		b.WriteString(loansRow(i))
		b.WriteByte('\n')
	}
	return b.String()
}

// createLoansSession creates a CSV session holding rows [0,n) of the Loans
// table at the test shard granularity.
func createLoansSession(t *testing.T, base, name string, n int) {
	t.Helper()
	status, payload := distPost(t, base, "/v1/sessions", CreateSessionRequest{
		Name: name,
		CSV: &CSVDatabase{
			Tables: []CSVTable{{Name: "Loans", Data: loansCSV(0, n)}},
			Model: &CSVModel{Edges: [][2]string{
				{"Loans.Status", "Loans.Credit"},
				{"Loans.Savings", "Loans.Credit"},
			}},
		},
		Options: &SessionOptions{Seed: 7, ShardRows: 256},
	}, nil)
	if status != http.StatusOK {
		t.Fatalf("create session %s: %d %s", name, status, payload)
	}
}

func appendLoans(t *testing.T, base, name string, lo, hi int) AppendResponse {
	t.Helper()
	var resp AppendResponse
	status, payload := distPost(t, base, "/v1/sessions/"+name+"/rows", AppendRequest{
		Tables: []AppendTable{{Name: "Loans", Data: loansCSV(lo, hi)}},
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("append to %s: %d %s", name, status, payload)
	}
	return resp
}

const loansQuery = `USE Loans WHEN Savings = 1 UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`

// TestMVCCSnapshotBitIdentity is the tentpole acceptance test: after rows
// are appended, querying snapshot v must be bit-identical to querying a
// fresh session holding exactly v's row prefix — at shard fan-outs 1 and 4,
// both local and distributed over workers. The fresh session lives on a
// separate server so nothing (caches, registries) can be shared by
// accident.
func TestMVCCSnapshotBitIdentity(t *testing.T) {
	grown := distTestServer(t, 2)
	golden := distTestServer(t, 2)

	const prefix, full = 600, 1100
	createLoansSession(t, grown, "s", prefix)
	resp := appendLoans(t, grown, "s", prefix, full)
	if resp.Version != 2 || resp.Rows != full || resp.AppendedRows != full-prefix {
		t.Fatalf("append response = %+v, want version 2, %d rows", resp, full)
	}
	// Strided shard accounting at target 256: creation seals [0,256) and
	// [256,512); the append must reuse both (never rescanning history) and
	// fit exactly the three shards the new rows touch.
	if resp.ShardsFitted != 3 || resp.ShardsReused != 2 {
		t.Fatalf("append shards fitted=%d reused=%d, want 3 fitted, 2 reused", resp.ShardsFitted, resp.ShardsReused)
	}

	// golden server: fresh sessions on the prefix rows and on the full rows.
	createLoansSession(t, golden, "pre", prefix)
	createLoansSession(t, golden, "all", full)

	for _, shards := range []int{1, 4} {
		for _, placement := range []string{"local", "workers"} {
			label := fmt.Sprintf("shards=%d placement=%s", shards, placement)
			query := func(base, session string, snapshot int64) *WhatIfResponse {
				t.Helper()
				var res WhatIfResponse
				st, p := distPost(t, base, "/v1/sessions/"+session+"/whatif", QueryRequest{
					Query: loansQuery, Snapshot: snapshot, Shards: shards, Placement: placement,
				}, &res)
				if st != http.StatusOK {
					t.Fatalf("%s: whatif %s@%d: %d %s", label, session, snapshot, st, p)
				}
				return &res
			}
			asOf1 := query(grown, "s", 1)
			pre := query(golden, "pre", 0)
			if got, want := stableOf(asOf1), stableOf(pre); got != want {
				t.Fatalf("%s: as-of-1 diverges from fresh prefix session:\n%s\nvs\n%s", label, got, want)
			}
			if asOf1.Snapshot != 1 {
				t.Fatalf("%s: pinned response snapshot = %d, want 1", label, asOf1.Snapshot)
			}
			head := query(grown, "s", 0)
			all := query(golden, "all", 0)
			if got, want := stableOf(head), stableOf(all); got != want {
				t.Fatalf("%s: head diverges from fresh full session:\n%s\nvs\n%s", label, got, want)
			}
			if head.Snapshot != 2 {
				t.Fatalf("%s: head response snapshot = %d, want 2", label, head.Snapshot)
			}
			if stableOf(head) == stableOf(asOf1) {
				t.Fatalf("%s: append did not change the result — the golden is vacuous", label)
			}
		}
	}

	// The meter counters surface in usage analytics: the append shape's cost
	// vector must show the fitted/reused split (the observable form of the
	// "appends never refit sealed shards" invariant).
	var usage UsageResponse
	if code := do(t, "GET", grown+"/v1/usage/s", nil, &usage); code != http.StatusOK {
		t.Fatalf("usage: status %d", code)
	}
	found := false
	for _, u := range usage.Shapes {
		if u.Kind != "append" {
			continue
		}
		found = true
		if u.Shape != "APPEND(Loans)" {
			t.Errorf("append shape = %q, want APPEND(Loans)", u.Shape)
		}
		if u.Cost == nil || u.Cost.AppendShardsFit != 3 || u.Cost.AppendShardsReuse != 2 {
			t.Errorf("append cost vector = %+v, want fit 3, reuse 2", u.Cost)
		}
	}
	if !found {
		t.Error("usage table has no append shape")
	}

	// Snapshot listing reflects the chain.
	var snaps SnapshotListResponse
	if code := do(t, "GET", grown+"/v1/sessions/s/snapshots", nil, &snaps); code != http.StatusOK {
		t.Fatalf("snapshots: status %d", code)
	}
	if snaps.Head != 2 || len(snaps.Snapshots) != 2 {
		t.Fatalf("snapshots = %+v, want head 2 with 2 entries", snaps)
	}
	if snaps.Snapshots[0].Rows != prefix || snaps.Snapshots[1].Rows != full ||
		snaps.Snapshots[1].AppendedRows != full-prefix {
		t.Fatalf("snapshot rows = %+v", snaps.Snapshots)
	}
}

// TestMVCCWhatIfDelta exercises the first-class what-if delta: one request
// evaluates the hypothetical at two versions and reports the difference.
func TestMVCCWhatIfDelta(t *testing.T) {
	ts := newTestServer(t, Config{})
	createLoansSession(t, ts.URL, "d", 600)
	appendLoans(t, ts.URL, "d", 600, 1100)

	var v1, head WhatIfResponse
	if code := do(t, "POST", ts.URL+"/v1/sessions/d/whatif", QueryRequest{Query: loansQuery, Snapshot: 1}, &v1); code != http.StatusOK {
		t.Fatalf("as-of-1: status %d", code)
	}
	if code := do(t, "POST", ts.URL+"/v1/sessions/d/whatif", QueryRequest{Query: loansQuery, DeltaVs: 1}, &head); code != http.StatusOK {
		t.Fatalf("delta query: status %d", code)
	}
	if head.Delta == nil {
		t.Fatal("delta_vs query returned no delta")
	}
	if head.Delta.VsSnapshot != 1 || head.Delta.VsValue != v1.Value {
		t.Fatalf("delta = %+v, want vs_snapshot 1 with value %v", head.Delta, v1.Value)
	}
	if got, want := head.Delta.Delta, head.Value-v1.Value; got != want {
		t.Fatalf("delta.delta = %v, want %v", got, want)
	}

	// delta_vs is a what-if concept; explain and how-to reject it.
	var errResp ErrorResponse
	if code := do(t, "POST", ts.URL+"/v1/sessions/d/explain", QueryRequest{Query: loansQuery, DeltaVs: 1}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("explain with delta_vs: status %d", code)
	}
	// An unknown comparison version is snapshot_not_found.
	if code := do(t, "POST", ts.URL+"/v1/sessions/d/whatif", QueryRequest{Query: loansQuery, DeltaVs: 9}, &errResp); code != http.StatusNotFound {
		t.Fatalf("delta_vs=9: status %d", code)
	}
	if errResp.Code != "snapshot_not_found" {
		t.Fatalf("delta_vs=9 code = %q, want snapshot_not_found", errResp.Code)
	}
}

// TestMVCCJobsPinVersion: a job submitted before an append runs against the
// version that was head at submit time, not whatever head is when the
// runner gets to it.
func TestMVCCJobsPinVersion(t *testing.T) {
	ts := newTestServer(t, Config{})
	createLoansSession(t, ts.URL, "j", 600)

	var v1 WhatIfResponse
	do(t, "POST", ts.URL+"/v1/sessions/j/whatif", QueryRequest{Query: loansQuery}, &v1)

	var job JobInfo
	if code := do(t, "POST", ts.URL+"/v1/jobs", JobRequest{
		Session: "j", Kind: "whatif", Query: loansQuery,
	}, &job); code != http.StatusOK {
		t.Fatalf("submit: status %d", code)
	}
	if job.Snapshot != 1 {
		t.Fatalf("job pinned snapshot = %d, want 1", job.Snapshot)
	}
	appendLoans(t, ts.URL, "j", 600, 1100)

	deadline := time.Now().Add(10 * time.Second)
	for job.State != "done" && job.State != "failed" {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", job.State)
		}
		time.Sleep(5 * time.Millisecond)
		do(t, "GET", ts.URL+"/v1/jobs/"+job.ID, nil, &job)
	}
	if job.State != "done" {
		t.Fatalf("job failed: %s", job.Error)
	}
	raw, err := json.Marshal(job.Result)
	if err != nil {
		t.Fatal(err)
	}
	var res WhatIfResponse
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Snapshot != 1 || res.Value != v1.Value {
		t.Fatalf("job result snapshot=%d value=%v, want the pinned v1 value %v", res.Snapshot, res.Value, v1.Value)
	}

	// An explicit snapshot in the job request pins that version.
	appendLoans(t, ts.URL, "j", 1100, 1200)
	var pinned JobInfo
	if code := do(t, "POST", ts.URL+"/v1/jobs", JobRequest{
		Session: "j", Kind: "whatif", Query: loansQuery, Snapshot: 2,
	}, &pinned); code != http.StatusOK {
		t.Fatalf("pinned submit failed")
	}
	if pinned.Snapshot != 2 {
		t.Fatalf("explicit pin = %d, want 2", pinned.Snapshot)
	}
	// Unknown versions are rejected at submit, not at run time.
	var errResp ErrorResponse
	if code := do(t, "POST", ts.URL+"/v1/jobs", JobRequest{
		Session: "j", Kind: "whatif", Query: loansQuery, Snapshot: 99,
	}, &errResp); code != http.StatusNotFound || errResp.Code != "snapshot_not_found" {
		t.Fatalf("snapshot=99 submit: %d %+v", code, errResp)
	}
}

// TestMVCCIsolation is the randomized black-box isolation checker the CI
// mvcc-check step runs for 30 seconds under -race: concurrent appenders
// grow a session while readers hammer pinned and head queries, asserting
// that (a) every published version answers identically forever after —
// appends can never disturb a snapshot a reader holds — and (b) head
// versions observed by any one reader are monotonic. Runtime scales with
// HYPER_MVCC_CHECK_SECONDS (default ~2s for plain `go test`).
func TestMVCCIsolation(t *testing.T) {
	duration := 2 * time.Second
	if s := os.Getenv("HYPER_MVCC_CHECK_SECONDS"); s != "" {
		secs, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("HYPER_MVCC_CHECK_SECONDS=%q: %v", s, err)
		}
		duration = time.Duration(secs) * time.Second
	}
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	createLoansSession(t, ts.URL, "iso", 400)

	// goldens maps version -> the stable rendering of the pinned query
	// result, recorded by whichever appender published the version. Readers
	// replay pinned queries against it for the rest of the run.
	var goldens sync.Map // int64 -> string
	var versions []int64 // published order, guarded by versionsMu
	var versionsMu sync.Mutex

	query := func(snapshot int64) (*WhatIfResponse, int) {
		var res WhatIfResponse
		code := do(t, "POST", ts.URL+"/v1/sessions/iso/whatif", QueryRequest{
			Query: loansQuery, Snapshot: snapshot,
		}, &res)
		return &res, code
	}
	res, code := query(0)
	if code != http.StatusOK {
		t.Fatalf("seed query: status %d", code)
	}
	goldens.Store(int64(1), stableOf(res))
	versions = []int64{1}

	const maxRows = 6000
	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
	}

	// Appenders: random small batches of random rows. Appends serialize
	// server-side; each publishes a distinct version whose golden is
	// recorded immediately via a pinned query.
	for a := 0; a < 2; a++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for time.Now().Before(deadline) {
				batch := "Status,Savings,Credit\n"
				for i := 0; i < 1+rng.Intn(20); i++ {
					batch += fmt.Sprintf("%d,%d,%d\n", rng.Intn(4), rng.Intn(3), rng.Intn(2))
				}
				var resp AppendResponse
				code := do(t, "POST", ts.URL+"/v1/sessions/iso/rows", AppendRequest{
					Tables: []AppendTable{{Name: "Loans", Data: batch}},
				}, &resp)
				if code != http.StatusOK {
					fail("append: status %d", code)
					return
				}
				res, code := query(resp.Version)
				if code != http.StatusOK {
					fail("golden query v%d: status %d", resp.Version, code)
					return
				}
				if res.Snapshot != resp.Version {
					fail("golden query v%d answered snapshot %d", resp.Version, res.Snapshot)
					return
				}
				goldens.Store(resp.Version, stableOf(res))
				versionsMu.Lock()
				versions = append(versions, resp.Version)
				versionsMu.Unlock()
				if resp.Rows >= maxRows {
					return // bound total work; readers keep verifying
				}
				time.Sleep(time.Duration(rng.Intn(5)) * time.Millisecond)
			}
		}(int64(100 + a))
	}

	// Readers: replay random published versions against their goldens and
	// check head monotonicity.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var lastHead int64
			for time.Now().Before(deadline) {
				versionsMu.Lock()
				v := versions[rng.Intn(len(versions))]
				versionsMu.Unlock()
				res, code := query(v)
				if code != http.StatusOK {
					fail("pinned query v%d: status %d", v, code)
					return
				}
				want, _ := goldens.Load(v)
				if got := stableOf(res); got != want.(string) {
					fail("snapshot %d changed its answer:\n got %s\nwant %s", v, got, want)
					return
				}
				if res.Snapshot != v {
					fail("pinned query v%d answered snapshot %d", v, res.Snapshot)
					return
				}
				if rng.Intn(4) == 0 {
					res, code := query(0)
					if code != http.StatusOK {
						fail("head query: status %d", code)
						return
					}
					if res.Snapshot < lastHead {
						fail("head went backwards: %d after %d", res.Snapshot, lastHead)
						return
					}
					lastHead = res.Snapshot
					// A head answer is itself a pinned answer for that
					// version once its golden exists.
					if want, ok := goldens.Load(res.Snapshot); ok {
						if got := stableOf(res); got != want.(string) {
							fail("head (v%d) diverges from its golden:\n got %s\nwant %s", res.Snapshot, got, want)
							return
						}
					}
				}
			}
		}(int64(200 + r))
	}
	wg.Wait()

	versionsMu.Lock()
	published := len(versions)
	versionsMu.Unlock()
	if published < 3 {
		t.Fatalf("checker published only %d versions — not exercising concurrency", published)
	}
	t.Logf("mvcc checker: %d versions published and verified over %v", published, duration)
}
