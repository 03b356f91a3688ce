// Command benchguard is the CI bench-regression gate: it compares a freshly
// generated BENCH_engine.json against the committed baseline and exits
// non-zero when a tracked metric regresses beyond tolerance. CI runs
// `hyperbench -exp engine` on every pull request, uploads the fresh JSON as
// an artifact, and fails the build on regression — so the perf numbers the
// repository claims are enforced, not aspirational.
//
// Tracked metrics:
//
//   - cold_whatif_ms        (cold what-if latency; relative tolerance, CI
//     machines are noisy so the default is 25%). Wall-clock only gates
//     when the baseline was recorded on comparable hardware — the same
//     GOMAXPROCS — otherwise a baseline committed from a laptop would fail
//     every PR on a slower runner (and a faster runner would mask real
//     regressions). On mismatched hardware the latency comparison is
//     printed as advisory and the gate rests on the allocation metrics;
//     regenerate the baseline from a CI artifact to arm it.
//   - freq_fit_allocs_per_op and freq_predict_allocs_per_op (allocation
//     counts; near-deterministic across machines, same relative tolerance
//     plus a small absolute grace so a zero baseline doesn't forbid a
//     single new alloc)
//   - tracing_overhead_pct (span-instrumentation cost of a cold what-if,
//     measured by hyperbench as an interleaved traced/untraced pair on the
//     SAME machine in the SAME run, so it gates unconditionally — no
//     baseline or hardware comparability needed; must stay under 2%, with
//     a 0.25ms absolute grace so sub-millisecond noise on tiny workloads
//     cannot fail the build)
//   - metering_overhead_pct (per-query cost-meter cost of the same cold
//     what-if, measured and gated exactly like the tracing overhead: the
//     resource accounting must stay effectively free)
//   - cold_whatif_planned_ms (the cold query through the cost-based planner
//     with fresh caches; gated like cold_whatif_ms — same tolerance, same
//     hardware-comparability rule)
//   - plan_cache_speedup (warm repeat over shared plan + artifact caches vs
//     the planned cold path, a within-run pair like the overhead gates, so
//     it gates unconditionally: must stay >= 1.5x)
//   - planner_overhead_pct (planned cold vs the interleaved unplanned cold
//     of the same run: the planner must not make a cold query more than 10%
//     slower, with the same 0.25ms grace as the instrumentation gates)
//   - plan_cache_speedup_matched (the WHEN query of the plan-golden corpus
//     with the estimator cache warm on both sides, plan cache + pushdown vs
//     the row loop: the planned side may be at most 10% slower, 0.25ms
//     grace). Unlike plan_cache_speedup, training is shared by both sides,
//     so this is what the plan cache itself buys.
//
// The planner collects stats only for the columns a query reads, so a
// WHEN-less cold query (the planner_overhead_pct pair) pays for no stats
// scan; the gate keeps it that way.
//
// Usage:
//
//	benchguard -baseline BENCH_engine.json -current /tmp/fresh.json [-tolerance 0.25]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
)

// metrics mirrors the tracked subset of hyperbench's engineBenchResult.
type metrics struct {
	Rows                   int     `json:"rows"`
	GOMAXPROCS             int     `json:"gomaxprocs"`
	NumCPU                 int     `json:"num_cpu"`
	GoVersion              string  `json:"go_version"`
	ColdWhatIfMs           float64 `json:"cold_whatif_ms"`
	FreqFitAllocsPerOp     int64   `json:"freq_fit_allocs_per_op"`
	FreqPredictAllocsPerOp int64   `json:"freq_predict_allocs_per_op"`
	ColdWhatIfTracedMs     float64 `json:"cold_whatif_traced_ms"`
	TracingOverheadPct     float64 `json:"tracing_overhead_pct"`
	ColdWhatIfMeteredMs    float64 `json:"cold_whatif_metered_ms"`
	MeteringOverheadPct    float64 `json:"metering_overhead_pct"`
	ColdWhatIfPlannedMs    float64 `json:"cold_whatif_planned_ms"`
	ColdWhatIfUnplannedMs  float64 `json:"cold_whatif_unplanned_ms"`
	WarmPlanCacheMs        float64 `json:"warm_plan_cache_ms"`
	PlanCacheSpeedup       float64 `json:"plan_cache_speedup"`
	WarmPlannedMatchedMs   float64 `json:"warm_planned_matched_ms"`
	WarmUnplannedMatchedMs float64 `json:"warm_unplanned_matched_ms"`
}

// env renders the execution environment of one run for the verdict. Older
// baselines predate the num_cpu/go_version fields; they print as "?" until
// the baseline is regenerated.
func (m metrics) env() string {
	cpus := "?"
	if m.NumCPU > 0 {
		cpus = fmt.Sprintf("%d", m.NumCPU)
	}
	gover := m.GoVersion
	if gover == "" {
		gover = "?"
	}
	return fmt.Sprintf("gomaxprocs=%d cpus=%s go=%s", m.GOMAXPROCS, cpus, gover)
}

func load(path string) (metrics, error) {
	var m metrics
	raw, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// allocGrace is the absolute allocation slack added on top of the relative
// tolerance: zero-alloc baselines stay comparable without forbidding every
// incidental allocation forever.
const allocGrace = 8

func main() {
	baselinePath := flag.String("baseline", "BENCH_engine.json", "committed baseline JSON")
	currentPath := flag.String("current", "", "freshly generated JSON to check")
	tolerance := flag.Float64("tolerance", 0.25, "allowed relative regression (0.25 = 25%)")
	flag.Parse()
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -current is required")
		os.Exit(2)
	}

	base, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: baseline: %v\n", err)
		os.Exit(2)
	}
	cur, err := load(*currentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: current: %v\n", err)
		os.Exit(2)
	}
	if base.Rows != cur.Rows {
		fmt.Fprintf(os.Stderr, "benchguard: row counts differ (baseline %d, current %d); compare runs at the same -scale\n",
			base.Rows, cur.Rows)
		os.Exit(2)
	}

	failed := false
	check := func(name string, baseV, curV, limit float64, gate bool) {
		status := "ok"
		if curV > limit {
			if gate {
				status = "REGRESSION"
				failed = true
			} else {
				status = "over limit (advisory: baseline from different hardware)"
			}
		} else if !gate {
			status = "ok (advisory)"
		}
		fmt.Printf("%-28s baseline %-12.6g current %-12.6g limit %-12.6g %s\n",
			name, baseV, curV, limit, status)
	}
	// The environments lead the verdict: a wall-clock comparison only means
	// something when both runs name comparable hardware, and a 1-core
	// runner's flat shard sweep must never be read as a regression against
	// a multi-core baseline.
	fmt.Printf("baseline env: %s\n", base.env())
	fmt.Printf("current env:  %s\n", cur.env())
	comparableHW := base.GOMAXPROCS == cur.GOMAXPROCS
	if !comparableHW {
		fmt.Printf("note: baseline GOMAXPROCS=%d, current GOMAXPROCS=%d — wall-clock is advisory until the baseline is regenerated on this hardware\n",
			base.GOMAXPROCS, cur.GOMAXPROCS)
	}
	if base.GoVersion != "" && cur.GoVersion != "" && base.GoVersion != cur.GoVersion {
		fmt.Printf("note: baseline built with %s, current with %s — allocation counts can shift across Go releases\n",
			base.GoVersion, cur.GoVersion)
	}
	check("cold_whatif_ms", base.ColdWhatIfMs, cur.ColdWhatIfMs,
		base.ColdWhatIfMs*(1+*tolerance), comparableHW)
	// The planned cold path gates exactly like the unplanned one (same 25%
	// policy, same hardware-comparability rule); a zero baseline means the
	// committed JSON predates the planner and the comparison waits for a
	// regeneration.
	if base.ColdWhatIfPlannedMs > 0 && cur.ColdWhatIfPlannedMs > 0 {
		check("cold_whatif_planned_ms", base.ColdWhatIfPlannedMs, cur.ColdWhatIfPlannedMs,
			base.ColdWhatIfPlannedMs*(1+*tolerance), comparableHW)
	} else {
		fmt.Printf("%-28s not measured (regenerate baseline and current with current hyperbench)\n", "cold_whatif_planned_ms")
	}
	check("freq_fit_allocs_per_op", float64(base.FreqFitAllocsPerOp), float64(cur.FreqFitAllocsPerOp),
		math.Ceil(float64(base.FreqFitAllocsPerOp)*(1+*tolerance))+allocGrace, true)
	check("freq_predict_allocs_per_op", float64(base.FreqPredictAllocsPerOp), float64(cur.FreqPredictAllocsPerOp),
		math.Ceil(float64(base.FreqPredictAllocsPerOp)*(1+*tolerance))+allocGrace, true)

	// Tracing and metering overheads are within-run paired measurements
	// (hyperbench interleaves instrumented and bare reps on this machine),
	// so they gate against the fixed 2% budget regardless of the baseline's
	// hardware. The absolute grace keeps sub-millisecond jitter on small
	// workloads from tripping a percentage gate. The planner pairs gate the
	// same way against a 10% budget.
	const maxInstrumentationPct = 2.0
	const maxPlannerPct = 10.0
	const pairedGraceMs = 0.25
	pairedGate := func(name string, instrumentedMs, bareMs, maxPct float64) {
		if instrumentedMs <= 0 || bareMs <= 0 {
			fmt.Printf("%-28s not measured (regenerate with current hyperbench)\n", name)
			return
		}
		overheadPct := (instrumentedMs/bareMs - 1) * 100
		deltaMs := instrumentedMs - bareMs
		status := "ok"
		if overheadPct > maxPct && deltaMs > pairedGraceMs {
			status = "REGRESSION"
			failed = true
		}
		fmt.Printf("%-28s current %+.3f%% (%+.3fms)    limit %.6g%%       %s\n",
			name, overheadPct, deltaMs, maxPct, status)
	}
	// The instrumentation pairs store only the instrumented side; recover
	// the paired bare time from the ratio (cold_whatif_ms is a median over
	// different reps and would make the delta incoherent).
	bareOf := func(ms, pct float64) float64 { return ms / (1 + pct/100) }
	pairedGate("tracing_overhead_pct", cur.ColdWhatIfTracedMs,
		bareOf(cur.ColdWhatIfTracedMs, cur.TracingOverheadPct), maxInstrumentationPct)
	pairedGate("metering_overhead_pct", cur.ColdWhatIfMeteredMs,
		bareOf(cur.ColdWhatIfMeteredMs, cur.MeteringOverheadPct), maxInstrumentationPct)
	pairedGate("planner_overhead_pct", cur.ColdWhatIfPlannedMs, cur.ColdWhatIfUnplannedMs, maxPlannerPct)
	pairedGate("plan_cache_speedup_matched", cur.WarmPlannedMatchedMs, cur.WarmUnplannedMatchedMs, maxPlannerPct)

	// The plan-cache speedup is a within-run cold/warm pair like the
	// instrumentation overheads, so it gates unconditionally: a warm repeat
	// of a structurally identical query must be at least minPlanSpeedup
	// faster than the planned cold path. Zero means the run predates the
	// planner fields.
	const minPlanSpeedup = 1.5
	if cur.WarmPlanCacheMs <= 0 || cur.PlanCacheSpeedup <= 0 {
		fmt.Printf("%-28s not measured (regenerate with current hyperbench)\n", "plan_cache_speedup")
	} else {
		status := "ok"
		if cur.PlanCacheSpeedup < minPlanSpeedup {
			status = "REGRESSION"
			failed = true
		}
		fmt.Printf("%-28s current %.2fx (cold %.3gms / warm %.3gms)  floor %.2gx  %s\n",
			"plan_cache_speedup", cur.PlanCacheSpeedup, cur.ColdWhatIfPlannedMs, cur.WarmPlanCacheMs, minPlanSpeedup, status)
	}

	if failed {
		fmt.Println("benchguard: FAIL — a tracked metric regressed beyond tolerance")
		os.Exit(1)
	}
	fmt.Println("benchguard: ok")
}
