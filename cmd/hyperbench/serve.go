package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"hyper/internal/server"
)

// serveBenchResult is the machine-readable serving benchmark, written to
// BENCH_serve.json so successive PRs can track the serving-path trajectory.
type serveBenchResult struct {
	Scale float64 `json:"scale"`
	Rows  int     `json:"rows"`
	// Execution environment (see engineBenchResult): recorded so a baseline
	// from one machine is never silently compared against another.
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
	GoVersion   string  `json:"go_version"`
	Queries     int     `json:"queries"`
	Concurrency int     `json:"concurrency"`
	QPS         float64 `json:"queries_per_sec"`
	P50Ms       float64 `json:"p50_ms"`
	P95Ms       float64 `json:"p95_ms"`
	// ColdMs/WarmMs isolate the cache effect: the same what-if query
	// evaluated on an empty cache vs. repeated against the warm cache.
	ColdMs       float64 `json:"cold_ms"`
	WarmMs       float64 `json:"warm_ms"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	CacheEntries int     `json:"cache_entries"`
	// Async path: the same workload submitted through POST /v1/jobs and
	// polled to completion, plus one brute-force how-to job cancelled
	// mid-solve. Wait quantiles come from the server's job gauges.
	AsyncJobs      int     `json:"async_jobs"`
	AsyncJPS       float64 `json:"async_jobs_per_sec"`
	AsyncP50WaitMs float64 `json:"async_p50_wait_ms"`
	AsyncP95WaitMs float64 `json:"async_p95_wait_ms"`
	AsyncCancelMs  float64 `json:"async_cancel_ms"`
	AsyncQueued    int     `json:"async_queued_end"`
	AsyncCompleted uint64  `json:"async_completed"`
	AsyncCancelled uint64  `json:"async_cancelled"`
	AsyncRejected  uint64  `json:"async_rejected"`
}

// serveQueries is the steady-state workload: four what-if templates sharing
// a session, so the artifact cache sees both hits (repeats) and distinct
// entries (different USE/WHEN/FOR identities).
var serveQueries = []string{
	`USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
	`USE German UPDATE(Status) = 2 OUTPUT COUNT(Credit = 1)`,
	`USE German UPDATE(Savings) = 2 OUTPUT COUNT(Credit = 1) FOR PRE(Age) = 2`,
	`USE German UPDATE(Housing) = 1 OUTPUT AVG(POST(Credit))`,
}

// runServe benchmarks the HTTP serving path end to end: a real listener, a
// preloaded german session, nQueries requests fanned across conc client
// goroutines, then the server's own /v1/stats for the cache hit rate.
func runServe(scale float64, seed int64, nQueries, conc int, out string) error {
	if nQueries <= 0 || conc <= 0 {
		return fmt.Errorf("serve: -serve-queries and -serve-conc must be positive (got %d, %d)", nQueries, conc)
	}
	srv := server.New(server.Config{
		// The async phase submits the whole workload up front; size the
		// queue and worker pool to match rather than exercising admission
		// control (the server tests pin the 429 path).
		JobWorkers:     conc,
		JobQueueDepth:  nQueries + 16,
		JobsPerSession: -1,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()

	post := func(path string, body any, dst any) error {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		payload, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, payload)
		}
		if dst != nil {
			return json.Unmarshal(payload, dst)
		}
		return nil
	}

	var info server.SessionInfo
	err = post("/v1/sessions", server.CreateSessionRequest{
		Name:    "bench",
		Dataset: "german",
		Scale:   scale,
		Seed:    seed,
		Options: &server.SessionOptions{Seed: seed},
	}, &info)
	if err != nil {
		return err
	}

	// Cold vs. warm: the first evaluation pays view + training, the repeat
	// is served from the shared cache.
	cold := time.Now()
	if err := post("/v1/sessions/bench/whatif", server.QueryRequest{Query: serveQueries[0]}, nil); err != nil {
		return err
	}
	coldMs := float64(time.Since(cold)) / float64(time.Millisecond)
	warm := time.Now()
	if err := post("/v1/sessions/bench/whatif", server.QueryRequest{Query: serveQueries[0]}, nil); err != nil {
		return err
	}
	warmMs := float64(time.Since(warm)) / float64(time.Millisecond)

	// Steady state: nQueries requests over conc goroutines.
	latencies := make([]time.Duration, nQueries)
	errs := make(chan error, conc)
	var wg sync.WaitGroup
	// Buffered and filled up front: workers bail out on their first error,
	// and an unbuffered feed would leave the producer blocked forever once
	// every worker has died.
	idx := make(chan int, nQueries)
	for i := 0; i < nQueries; i++ {
		idx <- i
	}
	close(idx)
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				t0 := time.Now()
				err := post("/v1/sessions/bench/whatif", server.QueryRequest{
					Query: serveQueries[i%len(serveQueries)],
				}, nil)
				latencies[i] = time.Since(t0)
				if err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	if err := <-errs; err != nil {
		return err
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	quantile := func(q float64) float64 {
		d := latencies[int(q*float64(len(latencies)-1))]
		return float64(d) / float64(time.Millisecond)
	}

	// Async phase: the same workload through the job API — submit all jobs,
	// then poll each to completion.
	getJob := func(id string) (server.JobInfo, error) {
		var info server.JobInfo
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			return info, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return info, fmt.Errorf("poll %s: status %d", id, resp.StatusCode)
		}
		return info, json.NewDecoder(resp.Body).Decode(&info)
	}
	isTerminal := func(state string) bool {
		return state == "done" || state == "failed" || state == "cancelled" || state == "expired"
	}
	asyncStart := time.Now()
	ids := make([]string, 0, nQueries)
	for i := 0; i < nQueries; i++ {
		var job server.JobInfo
		if err := post("/v1/jobs", server.JobRequest{
			Session: "bench",
			Query:   serveQueries[i%len(serveQueries)],
		}, &job); err != nil {
			return err
		}
		ids = append(ids, job.ID)
	}
	for _, id := range ids {
		for {
			info, err := getJob(id)
			if err != nil {
				return err
			}
			if isTerminal(info.State) {
				if info.State != "done" {
					return fmt.Errorf("job %s finished as %s: %s", id, info.State, info.Error)
				}
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	asyncElapsed := time.Since(asyncStart)

	// Cancellation round-trip: a brute-force how-to job cancelled as soon
	// as it runs; AsyncCancelMs is submit -> observed-cancelled wall time.
	cancelStart := time.Now()
	var brute server.JobInfo
	err = post("/v1/jobs", server.JobRequest{
		Session: "bench", Kind: "howto", Method: "brute",
		Query: `USE German HOWTOUPDATE Status, Savings, Housing, CreditAmount TOMAXIMIZE COUNT(Credit = 1)`,
	}, &brute)
	if err != nil {
		return err
	}
	for {
		info, err := getJob(brute.ID)
		if err != nil {
			return err
		}
		if info.State == "running" || isTerminal(info.State) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	req, err := http.NewRequest("DELETE", base+"/v1/jobs/"+brute.ID, nil)
	if err != nil {
		return err
	}
	if resp, err := http.DefaultClient.Do(req); err != nil {
		return err
	} else {
		resp.Body.Close()
	}
	for {
		info, err := getJob(brute.ID)
		if err != nil {
			return err
		}
		if isTerminal(info.State) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancelMs := float64(time.Since(cancelStart)) / float64(time.Millisecond)

	var stats server.StatsResponse
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return err
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		return err
	}
	res := serveBenchResult{
		Scale:          scale,
		Rows:           info.Rows,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		GoVersion:      runtime.Version(),
		Queries:        nQueries,
		Concurrency:    conc,
		QPS:            float64(nQueries) / elapsed.Seconds(),
		P50Ms:          quantile(0.50),
		P95Ms:          quantile(0.95),
		ColdMs:         coldMs,
		WarmMs:         warmMs,
		AsyncJobs:      nQueries,
		AsyncJPS:       float64(nQueries) / asyncElapsed.Seconds(),
		AsyncP50WaitMs: stats.Jobs.P50WaitMs,
		AsyncP95WaitMs: stats.Jobs.P95WaitMs,
		AsyncCancelMs:  cancelMs,
		AsyncQueued:    stats.Jobs.Queued,
		AsyncCompleted: stats.Jobs.Completed,
		AsyncCancelled: stats.Jobs.Cancelled,
		AsyncRejected:  stats.Jobs.Rejected,
	}
	for _, s := range stats.Sessions {
		if s.Name == "bench" {
			res.CacheHitRate = s.Cache.HitRate()
			res.CacheEntries = s.Cache.Entries
		}
	}

	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("rows=%d queries=%d conc=%d  %.1f q/s  p50=%.2fms p95=%.2fms  cold=%.2fms warm=%.2fms  hit rate %.1f%%\n",
		res.Rows, res.Queries, res.Concurrency, res.QPS, res.P50Ms, res.P95Ms, res.ColdMs, res.WarmMs, 100*res.CacheHitRate)
	fmt.Printf("async: %d jobs  %.1f jobs/s  wait p50=%.2fms p95=%.2fms  cancel rtt=%.2fms  completed=%d cancelled=%d\n",
		res.AsyncJobs, res.AsyncJPS, res.AsyncP50WaitMs, res.AsyncP95WaitMs, res.AsyncCancelMs, res.AsyncCompleted, res.AsyncCancelled)
	fmt.Printf("wrote %s\n", out)
	return nil
}
