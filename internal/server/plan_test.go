package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"testing"

	"hyper/internal/hyperql"
)

const germanPlanned = `USE German WHEN Age = 2 UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`

// TestServerPlanCacheStatsAndSessionDelete exercises the plan cache through
// the HTTP surface: a repeated what-if must hit the session's plan cache,
// /v1/stats must expose the counters, and deleting the session must drop its
// cached plans — a recreated session compiles from scratch.
func TestServerPlanCacheStatsAndSessionDelete(t *testing.T) {
	ts := newTestServer(t, Config{})
	createSession(t, ts, "g")

	for i := 0; i < 2; i++ {
		var res WhatIfResponse
		if code := do(t, "POST", ts.URL+"/v1/whatif", QueryRequest{Session: "g", Query: germanPlanned}, &res); code != http.StatusOK {
			t.Fatalf("whatif %d: status %d", i, code)
		}
	}
	var stats StatsResponse
	do(t, "GET", ts.URL+"/v1/stats", nil, &stats)
	if stats.Plan.Misses < 1 || stats.Plan.Compiles < 1 {
		t.Fatalf("plan stats after cold query = %+v, want a miss and a compile", stats.Plan)
	}
	if stats.Plan.Hits < 1 {
		t.Fatalf("plan stats after repeat = %+v, want a cache hit", stats.Plan)
	}
	if stats.Plan.Entries == 0 {
		t.Fatalf("plan stats = %+v, want live cache entries", stats.Plan)
	}
	if len(stats.Sessions) != 1 || stats.Sessions[0].Plan.Hits < 1 {
		t.Fatalf("session plan stats = %+v, want per-session hit counters", stats.Sessions)
	}

	// Deleting the session must drop its compiled plans with it.
	if code := do(t, "DELETE", ts.URL+"/v1/sessions/g", nil, nil); code != http.StatusOK {
		t.Fatalf("delete session: status %d", code)
	}
	do(t, "GET", ts.URL+"/v1/stats", nil, &stats)
	if stats.Plan.Entries != 0 || stats.Plan.Hits != 0 {
		t.Fatalf("plan stats after delete = %+v, want empty", stats.Plan)
	}

	// A recreated session starts cold: same query text, fresh compile, no
	// stale reuse from the deleted session.
	createSession(t, ts, "g")
	var res WhatIfResponse
	do(t, "POST", ts.URL+"/v1/whatif", QueryRequest{Session: "g", Query: germanPlanned}, &res)
	do(t, "GET", ts.URL+"/v1/stats", nil, &stats)
	if stats.Plan.Hits != 0 || stats.Plan.Misses < 1 {
		t.Fatalf("plan stats after recreate = %+v, want a fresh miss and no hits", stats.Plan)
	}
}

// TestServerCacheEntriesBoundsAllKinds checks that -cache-entries is the
// one bound of a session's artifact cache: engine and plan artifacts
// together stay within it while distinct WHEN what-ifs evict each other,
// and eviction never changes an answer.
func TestServerCacheEntriesBoundsAllKinds(t *testing.T) {
	const bound = 4
	tiny := newTestServer(t, Config{CacheEntries: bound})
	unbounded := newTestServer(t, Config{CacheEntries: -1})
	createSession(t, tiny, "g")
	createSession(t, unbounded, "g")
	whens := []string{"Age = 2", "Sex = 1", "Age = 1 AND Sex = 0", "Status IN (1, 2)", "Savings > 1", "Age = 2"}
	for _, when := range whens {
		q := QueryRequest{Query: "USE German WHEN " + when + " UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)"}
		var got, want WhatIfResponse
		if code := do(t, "POST", tiny.URL+"/v1/sessions/g/whatif", q, &got); code != http.StatusOK {
			t.Fatalf("%s: bounded whatif: status %d", when, code)
		}
		if code := do(t, "POST", unbounded.URL+"/v1/sessions/g/whatif", q, &want); code != http.StatusOK {
			t.Fatalf("%s: unbounded whatif: status %d", when, code)
		}
		if got.Value != want.Value || got.Sum != want.Sum || got.Count != want.Count || got.UpdatedRows != want.UpdatedRows {
			t.Fatalf("%s: bounded session answered %+v, unbounded %+v", when, got, want)
		}
		var info SessionInfo
		do(t, "GET", tiny.URL+"/v1/sessions/g", nil, &info)
		if n := info.Cache.Entries + info.Plan.Entries; n > bound {
			t.Fatalf("%s: session holds %d artifacts (engine %d + plan %d), bound %d",
				when, n, info.Cache.Entries, info.Plan.Entries, bound)
		}
		if info.Cache.MaxEntries != bound {
			t.Fatalf("cache bound = %d, want %d", info.Cache.MaxEntries, bound)
		}
	}
	var info SessionInfo
	do(t, "GET", tiny.URL+"/v1/sessions/g", nil, &info)
	if info.Cache.Evictions == 0 || info.Plan.Evictions == 0 {
		t.Fatalf("engine evictions %d, plan evictions %d: the bound never bit, so the test shows nothing",
			info.Cache.Evictions, info.Plan.Evictions)
	}
}

// TestServerCreateSessionRejectsCacheBounds checks that a client cannot set
// its session's cache bound: the bound is the operator's -cache-entries, and
// the strict decoder answers the removed per-request fields with a 400.
func TestServerCreateSessionRejectsCacheBounds(t *testing.T) {
	ts := newTestServer(t, Config{})
	for _, field := range []string{"cache_entries", "plan_cache_entries"} {
		body := map[string]any{"name": "greedy", "dataset": "german", "scale": 0.1, field: -1}
		var e ErrorResponse
		if code := do(t, "POST", ts.URL+"/v1/sessions", body, &e); code != http.StatusBadRequest || e.Error == "" {
			t.Fatalf("%s: status %d, error %q; want 400 with an error envelope", field, code, e.Error)
		}
		if code := do(t, "GET", ts.URL+"/v1/sessions/greedy", nil, nil); code != http.StatusNotFound {
			t.Fatalf("%s: session lookup after a rejected create: status %d, want 404", field, code)
		}
	}
}

var planFingerprintRe = regexp.MustCompile(`plan ([0-9a-f]{16})`)

// TestServerPlanSchemaChangeInvalidation pins the cache-identity contract at
// the HTTP surface: the same query text against a re-uploaded table with a
// different schema must plan under a different fingerprint (the signature is
// folded into the cache key), never reuse the old pushdown program.
func TestServerPlanSchemaChangeInvalidation(t *testing.T) {
	ts := newTestServer(t, Config{})
	makeCSV := func(extra bool) string {
		header := "Status,Savings,Credit"
		if extra {
			header += ",Region"
		}
		csv := header + "\n"
		for i := 0; i < 60; i++ {
			row := fmt.Sprintf("%d,%d,%d", i%4, i%3, (i+i/4)%2)
			if extra {
				row += fmt.Sprintf(",%d", i%5)
			}
			csv += row + "\n"
		}
		return csv
	}
	create := func(extra bool) {
		t.Helper()
		var info SessionInfo
		code := do(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{
			Name: "mine",
			CSV: &CSVDatabase{
				Tables: []CSVTable{{Name: "Loans", Data: makeCSV(extra)}},
				Model: &CSVModel{Edges: [][2]string{
					{"Loans.Status", "Loans.Credit"},
					{"Loans.Savings", "Loans.Credit"},
				}},
			},
		}, &info)
		if code != http.StatusOK {
			t.Fatalf("csv session (extra=%v): status %d (%+v)", extra, code, info)
		}
	}
	explainFP := func() string {
		t.Helper()
		var res ExplainResponse
		code := do(t, "POST", ts.URL+"/v1/explain", QueryRequest{
			Session: "mine",
			Query:   `USE Loans WHEN Savings = 1 UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
		}, &res)
		if code != http.StatusOK {
			t.Fatalf("explain: status %d", code)
		}
		m := planFingerprintRe.FindStringSubmatch(res.Plan)
		if m == nil {
			t.Fatalf("explain output has no plan fingerprint:\n%s", res.Plan)
		}
		return m[1]
	}

	create(false)
	fp1 := explainFP()
	if code := do(t, "DELETE", ts.URL+"/v1/sessions/mine", nil, nil); code != http.StatusOK {
		t.Fatalf("delete session: status %d", code)
	}
	create(true)
	fp2 := explainFP()
	if fp1 == fp2 {
		t.Fatalf("same fingerprint %s across a schema change: a stale plan could be served", fp1)
	}
}

// TestServerPlanCacheAcrossAppend pins cache identity along the MVCC chain:
// after an append, the same query as of the old version must still hit the
// plan it compiled before the append (same fingerprint, no fresh compile),
// while the head — new data, new version — must compile fresh under a
// different fingerprint.
func TestServerPlanCacheAcrossAppend(t *testing.T) {
	ts := newTestServer(t, Config{})
	createLoansSession(t, ts.URL, "v", 600)

	explainFP := func(snapshot int64) string {
		t.Helper()
		var res ExplainResponse
		code := do(t, "POST", ts.URL+"/v1/sessions/v/explain", QueryRequest{
			Query: loansQuery, Snapshot: snapshot,
		}, &res)
		if code != http.StatusOK {
			t.Fatalf("explain@%d: status %d", snapshot, code)
		}
		m := planFingerprintRe.FindStringSubmatch(res.Plan)
		if m == nil {
			t.Fatalf("explain output has no plan fingerprint:\n%s", res.Plan)
		}
		return m[1]
	}
	planStats := func() struct{ Hits, Misses, Compiles uint64 } {
		t.Helper()
		var stats StatsResponse
		if code := do(t, "GET", ts.URL+"/v1/stats", nil, &stats); code != http.StatusOK {
			t.Fatalf("stats: status %d", code)
		}
		return struct{ Hits, Misses, Compiles uint64 }{
			stats.Plan.Hits, stats.Plan.Misses, stats.Plan.Compiles,
		}
	}

	fpV1 := explainFP(0) // compiles at version 1
	before := planStats()
	appendLoans(t, ts.URL, "v", 600, 1100)

	// As of version 1: identical fingerprint, served from cache — the append
	// invalidated nothing behind the pinned snapshot.
	if got := explainFP(1); got != fpV1 {
		t.Fatalf("as-of-1 fingerprint %s != pre-append %s", got, fpV1)
	}
	afterPinned := planStats()
	if afterPinned.Hits <= before.Hits {
		t.Fatalf("as-of-1 explain missed the plan cache: %+v -> %+v", before, afterPinned)
	}
	if afterPinned.Compiles != before.Compiles {
		t.Fatalf("as-of-1 explain recompiled: %+v -> %+v", before, afterPinned)
	}

	// Head (version 2): different data identity, fresh fingerprint, fresh
	// compile.
	fpHead := explainFP(0)
	if fpHead == fpV1 {
		t.Fatalf("head shares fingerprint %s with version 1: stale stats could be served", fpV1)
	}
	afterHead := planStats()
	if afterHead.Compiles != afterPinned.Compiles+1 {
		t.Fatalf("head explain compiles %d, want %d", afterHead.Compiles, afterPinned.Compiles+1)
	}
}

// TestServerHowToRankAfterAppend pins how-to planning on a grown head: after
// appends, the head version ranks its HOWTOUPDATE attributes from its own
// rows and answers exactly as a fresh session holding the same rows, at
// shard fan-outs 1 and 4. The second append widens Savings past Status, so
// a rank computed from an older version's rows would come out reversed.
func TestServerHowToRankAfterAppend(t *testing.T) {
	newServer := func() (*Server, string) {
		srv := New(Config{})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return srv, ts.URL
	}
	grownSrv, grown := newServer()
	goldenSrv, golden := newServer()

	wide := "Status,Savings,Credit\n"
	for i := 0; i < 40; i++ {
		wide += fmt.Sprintf("%d,%d,%d\n", i%4, 3+i%5, i%2)
	}
	createLoansSession(t, grown, "s", 600)
	appendLoans(t, grown, "s", 600, 900)
	if st, p := distPost(t, grown, "/v1/sessions/s/rows", AppendRequest{
		Tables: []AppendTable{{Name: "Loans", Data: wide}},
	}, nil); st != http.StatusOK {
		t.Fatalf("append: %d %s", st, p)
	}
	allRows := loansCSV(0, 900) + wide[len("Status,Savings,Credit\n"):]
	if st, p := distPost(t, golden, "/v1/sessions", CreateSessionRequest{
		Name: "all",
		CSV: &CSVDatabase{
			Tables: []CSVTable{{Name: "Loans", Data: allRows}},
			Model: &CSVModel{Edges: [][2]string{
				{"Loans.Status", "Loans.Credit"},
				{"Loans.Savings", "Loans.Credit"},
			}},
		},
		Options: &SessionOptions{Seed: 7, ShardRows: 256},
	}, nil); st != http.StatusOK {
		t.Fatalf("create golden session: %d %s", st, p)
	}

	const query = `USE Loans HOWTOUPDATE Status, Savings LIMIT UPDATES <= 1 TOMAXIMIZE COUNT(Credit = 1)`
	q, err := hyperql.ParseHowTo(query)
	if err != nil {
		t.Fatal(err)
	}
	// rankOf reads the attribute rank of a session version and reports
	// whether it was already collected (a repeat adds nothing to the cache).
	rankOf := func(srv *Server, name string, version int) (map[string]int, bool) {
		t.Helper()
		e, err := srv.session(name)
		if err != nil {
			t.Fatal(err)
		}
		sn := e.head()
		if version > 0 {
			sn = e.snaps[version-1]
		}
		before := sn.sess.Cache().Len()
		rank := sn.sess.PlanCache().AttrRank(sn.sess.DB(), q.Use, q.Attrs)
		return rank, sn.sess.Cache().Len() == before
	}
	if r, _ := rankOf(grownSrv, "s", 1); r["Savings"] != 0 {
		t.Fatalf("version 1 rank %v, want Savings first (the reversal below would be vacuous)", r)
	}
	for _, shards := range []int{1, 4} {
		howto := func(base, session string) HowToResponse {
			t.Helper()
			var res HowToResponse
			st, p := distPost(t, base, "/v1/sessions/"+session+"/howto", QueryRequest{Query: query, Shards: shards}, &res)
			if st != http.StatusOK {
				t.Fatalf("shards=%d: howto %s: %d %s", shards, session, st, p)
			}
			res.Snapshot, res.TotalMs = 0, 0
			return res
		}
		got, want := howto(grown, "s"), howto(golden, "all")
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: grown head how-to diverges from fresh session:\n%+v\nvs\n%+v", shards, got, want)
		}
		gotRank, gotCached := rankOf(grownSrv, "s", 0)
		wantRank, wantCached := rankOf(goldenSrv, "all", 0)
		if gotRank["Status"] != 0 || !reflect.DeepEqual(gotRank, wantRank) {
			t.Fatalf("shards=%d: head rank %v, fresh session rank %v, want Status first in both", shards, gotRank, wantRank)
		}
		if !gotCached || !wantCached {
			t.Fatalf("shards=%d: the how-to did not rank its attributes (grown %v, fresh %v)", shards, gotCached, wantCached)
		}
	}
}
