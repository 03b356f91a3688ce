package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"hyper/internal/dataset"
	"hyper/internal/engine"
	"hyper/internal/howto"
	"hyper/internal/hyperql"
	"hyper/internal/ml"
	"hyper/internal/obs"
	"hyper/internal/plan"
)

// engineBenchResult is the machine-readable engine benchmark, written to
// BENCH_engine.json so successive PRs can track the what-if/how-to hot path
// (cold latency, training volume, allocation behaviour) alongside the
// serving-path numbers in BENCH_serve.json.
type engineBenchResult struct {
	Scale float64 `json:"scale"`
	Rows  int     `json:"rows"`
	// Execution environment. Wall-clock numbers are only comparable across
	// runs on comparable hardware; cmd/benchguard prints these in its
	// verdict and arms the latency gate only when GOMAXPROCS matches, so a
	// 1-core CI runner's flat shard sweep is never misread as a regression
	// against a multi-core baseline.
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	// Shards is the -shards worker fan-out used for the headline metrics
	// (0 = GOMAXPROCS).
	Shards int `json:"shards"`
	// ColdWhatIfMs is the median uncached evaluation of the discrete
	// (freq-estimator) serving query; ColdWhatIfForMs adds a FOR predicate
	// (two regressors via inclusion-exclusion).
	ColdWhatIfMs    float64 `json:"cold_whatif_ms"`
	ColdWhatIfForMs float64 `json:"cold_whatif_for_ms"`
	TrainedModels   int     `json:"trained_models"`
	// ColdWhatIfTracedMs is the same cold query evaluated under an active
	// obs trace (reps interleaved with untraced ones so machine drift hits
	// both sides equally); TracingOverheadPct is the relative cost of the
	// span instrumentation, gated <2% by cmd/benchguard.
	ColdWhatIfTracedMs float64 `json:"cold_whatif_traced_ms"`
	TracingOverheadPct float64 `json:"tracing_overhead_pct"`
	// ColdWhatIfMeteredMs is the same cold query with a cost meter riding the
	// context (every charge point live); MeteringOverheadPct is the relative
	// cost of the per-query accounting, gated <2% by cmd/benchguard alongside
	// the tracing gate.
	ColdWhatIfMeteredMs float64 `json:"cold_whatif_metered_ms"`
	MeteringOverheadPct float64 `json:"metering_overhead_pct"`
	// ColdWhatIfPlannedMs is the cold query through the cost-based planner
	// with fresh caches every rep (stats collection + plan compile + pushdown
	// all paid), interleaved with the unplanned path; gated like
	// cold_whatif_ms by cmd/benchguard. ColdWhatIfUnplannedMs is that
	// interleaved unplanned side and PlannerOverheadPct the planned cost over
	// it, gated within-run (<= 10%, 0.25ms grace). WarmPlanCacheMs is the
	// same query repeated over one shared cache (plan-cache hit,
	// view and estimators memoized); PlanCacheSpeedup = planned-cold / warm,
	// gated >= 1.5x within-run. Planned, warm, and unplanned results are
	// bit-identical — checked at shards=1 and 4, not assumed.
	ColdWhatIfPlannedMs   float64 `json:"cold_whatif_planned_ms"`
	ColdWhatIfUnplannedMs float64 `json:"cold_whatif_unplanned_ms"`
	PlannerOverheadPct    float64 `json:"planner_overhead_pct"`
	WarmPlanCacheMs       float64 `json:"warm_plan_cache_ms"`
	PlanCacheSpeedup      float64 `json:"plan_cache_speedup"`
	// WarmPlannedMatchedMs and WarmUnplannedMatchedMs time the WHEN query of
	// the plan-golden corpus (german-when-reordered) with the estimator cache
	// warm on both sides, interleaved: one side also hits the plan cache and
	// runs the pushdown program, the other runs the WHEN row loop.
	// PlanCacheSpeedupMatched = unplanned / planned is what the plan cache
	// itself buys once training is shared; gated within-run (planned at most
	// 10% slower, 0.25ms grace).
	WarmPlannedMatchedMs    float64 `json:"warm_planned_matched_ms"`
	WarmUnplannedMatchedMs  float64 `json:"warm_unplanned_matched_ms"`
	PlanCacheSpeedupMatched float64 `json:"plan_cache_speedup_matched"`
	// HowToMs is a four-attribute how-to (candidate scoring dominates);
	// HowToSerialMs is the same query at GOMAXPROCS=1, so the ratio shows
	// how candidate scoring scales with cores.
	HowToMs         float64 `json:"howto_ms"`
	HowToSerialMs   float64 `json:"howto_serial_ms"`
	HowToCandidates int     `json:"howto_candidates"`
	// Estimator fit+predict micro-costs over the encoded German view
	// (testing.Benchmark; allocs/op is the regression tripwire).
	FreqFitNsPerOp         int64 `json:"freq_fit_ns_per_op"`
	FreqFitAllocsPerOp     int64 `json:"freq_fit_allocs_per_op"`
	FreqPredictNsPerOp     int64 `json:"freq_predict_ns_per_op"`
	FreqPredictAllocsPerOp int64 `json:"freq_predict_allocs_per_op"`
	// ShardSweep records the cold what-if latency under a worker fan-out of
	// 1/2/4/8 at 5k and 50k rows. Values are bit-identical across the sweep
	// (the shard plan is canonical); only wall time moves, and only as far
	// as the hardware allows — single-core machines record a flat sweep.
	ShardSweep []shardSweepPoint `json:"shard_sweep"`
}

// shardSweepPoint is one (rows, shards) cell of the sweep.
type shardSweepPoint struct {
	Rows   int `json:"rows"`
	Shards int `json:"shards"`
	// PlanShards is the canonical plan size at this row count (the worker
	// fan-out is clamped to it).
	PlanShards   int     `json:"plan_shards"`
	ColdWhatIfMs float64 `json:"cold_whatif_ms"`
	TuplesPerSec float64 `json:"tuples_per_sec"`
}

const engineBenchReps = 5

// tracingOverheadReps is higher than engineBenchReps because the tracing
// gate is a percentage of a few milliseconds: the per-side minimum needs
// enough samples for each side to land a rep near its noise floor.
const tracingOverheadReps = 15

// interleavedMs alternates two workloads rep pairs (a,b,a,b,...) and returns
// each side's MINIMUM wall time in ms. Interleaving puts slow-machine drift
// on both sides instead of whichever ran second; the minimum (not median) is
// the estimator because scheduler noise is one-sided additive — each side's
// best rep approaches its intrinsic cost, which is exactly what a
// sub-millisecond overhead comparison needs (run-to-run medians of the same
// workload swing far more than the 2% budget being measured). One untimed
// warmup pair absorbs first-touch costs (page faults, branch predictors)
// that would otherwise be billed entirely to side a.
func interleavedMs(reps int, a, b func() error) (aMs, bMs float64, err error) {
	if err := a(); err != nil {
		return 0, 0, err
	}
	if err := b(); err != nil {
		return 0, 0, err
	}
	aMs, bMs = math.Inf(1), math.Inf(1)
	for i := 0; i < reps; i++ {
		for _, side := range []struct {
			fn   func() error
			best *float64
		}{{a, &aMs}, {b, &bMs}} {
			start := time.Now()
			if err := side.fn(); err != nil {
				return 0, 0, err
			}
			if ms := float64(time.Since(start)) / float64(time.Millisecond); ms < *side.best {
				*side.best = ms
			}
		}
	}
	return aMs, bMs, nil
}

// medianMs runs fn reps times and returns the median wall time in ms.
func medianMs(reps int, fn func() error) (float64, error) {
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times = append(times, float64(time.Since(start))/float64(time.Millisecond))
	}
	sort.Float64s(times)
	return times[len(times)/2], nil
}

// plannedOptions returns engine options with a fresh artifact cache and a
// plan cache over it.
func plannedOptions(seed int64, shards int) engine.Options {
	c := engine.NewCache()
	return engine.Options{Seed: seed, Shards: shards, Cache: c, Plans: plan.NewCache(c)}
}

// runEngine benchmarks the evaluation hot path off the HTTP stack: cold
// what-if latency, how-to wall time (parallel and serial), estimator
// fit/predict allocation counts, and a shard sweep, written to out as JSON.
func runEngine(scale float64, seed int64, shards int, out string) error {
	g := dataset.GermanSyn(int(5000*scale+0.5), seed)
	rel := g.DB.Relation("German")
	res := engineBenchResult{
		Scale:      scale,
		Rows:       rel.Len(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Shards:     shards,
	}

	parse := func(src string) *hyperql.WhatIf {
		q, err := hyperql.ParseWhatIf(src)
		if err != nil {
			panic(err)
		}
		return q
	}
	qCold := parse(`USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`)
	qFor := parse(`USE German UPDATE(Savings) = 2 OUTPUT COUNT(Credit = 1) FOR PRE(Age) = 2`)

	var last *engine.Result
	cold, err := medianMs(engineBenchReps, func() error {
		r, err := engine.Evaluate(g.DB, g.Model, qCold, engine.Options{Seed: seed, Shards: shards})
		last = r
		return err
	})
	if err != nil {
		return err
	}
	res.ColdWhatIfMs = cold
	res.TrainedModels = last.TrainedModels

	// Tracing overhead: the identical cold evaluation with and without an
	// active trace, reps interleaved (A/B/A/B...) so cache warmup and CPU
	// frequency drift bias neither side. Spans are execution-only, so the
	// traced result must stay bit-identical — checked, not assumed.
	tracedMs, untracedMs, err := interleavedMs(tracingOverheadReps, func() error {
		tr := obs.NewTrace("bench_whatif")
		r, err := engine.EvaluateContext(tr.Context(context.Background()), g.DB, g.Model, qCold, engine.Options{Seed: seed, Shards: shards})
		tr.Finish()
		if err == nil && r.Value != last.Value {
			return fmt.Errorf("traced evaluation diverged: %v != %v", r.Value, last.Value)
		}
		return err
	}, func() error {
		_, err := engine.Evaluate(g.DB, g.Model, qCold, engine.Options{Seed: seed, Shards: shards})
		return err
	})
	if err != nil {
		return err
	}
	res.ColdWhatIfTracedMs = tracedMs
	res.TracingOverheadPct = (tracedMs - untracedMs) / untracedMs * 100

	// Metering overhead: the same A/B protocol with a cost meter instead of a
	// trace. The meter is execution-only like spans, so the metered result
	// must stay bit-identical — and its counters must match the authoritative
	// result fields, otherwise the overhead number is measuring a broken meter.
	meteredMs, unmeteredMs, err := interleavedMs(tracingOverheadReps, func() error {
		meter := obs.NewMeter()
		r, err := engine.EvaluateContext(obs.ContextWithMeter(context.Background(), meter),
			g.DB, g.Model, qCold, engine.Options{Seed: seed, Shards: shards})
		if err != nil {
			return err
		}
		if r.Value != last.Value {
			return fmt.Errorf("metered evaluation diverged: %v != %v", r.Value, last.Value)
		}
		if mj := meter.JSON(); mj.TuplesEvaluated != uint64(r.ViewRows) || mj.ShardsRun != uint64(r.ShardPlan) {
			return fmt.Errorf("meter miscounted: tuples=%d shards=%d vs rows=%d plan=%d",
				mj.TuplesEvaluated, mj.ShardsRun, r.ViewRows, r.ShardPlan)
		}
		return nil
	}, func() error {
		_, err := engine.Evaluate(g.DB, g.Model, qCold, engine.Options{Seed: seed, Shards: shards})
		return err
	})
	if err != nil {
		return err
	}
	res.ColdWhatIfMeteredMs = meteredMs
	res.MeteringOverheadPct = (meteredMs - unmeteredMs) / unmeteredMs * 100

	res.ColdWhatIfForMs, err = medianMs(engineBenchReps, func() error {
		_, err := engine.Evaluate(g.DB, g.Model, qFor, engine.Options{Seed: seed, Shards: shards})
		return err
	})
	if err != nil {
		return err
	}

	// Planner cold/warm pair. Cold: a fresh cache every rep, so
	// each one pays stats collection, plan compilation, and the pushdown scan
	// — interleaved with the unplanned path so drift hits both sides.
	// Planning is execution-only, so the planned value must stay
	// bit-identical to the unplanned one.
	plannedMs, unplannedMs, err := interleavedMs(engineBenchReps, func() error {
		r, err := engine.Evaluate(g.DB, g.Model, qCold, plannedOptions(seed, shards))
		if err != nil {
			return err
		}
		if r.PlanCacheHit {
			return fmt.Errorf("cold planned rep hit the plan cache (caches leaked across reps)")
		}
		if r.Value != last.Value || r.Sum != last.Sum || r.Count != last.Count {
			return fmt.Errorf("planned evaluation diverged: %v != %v", r.Value, last.Value)
		}
		return nil
	}, func() error {
		_, err := engine.Evaluate(g.DB, g.Model, qCold, engine.Options{Seed: seed, Shards: shards})
		return err
	})
	if err != nil {
		return err
	}
	res.ColdWhatIfPlannedMs = plannedMs
	res.ColdWhatIfUnplannedMs = unplannedMs
	res.PlannerOverheadPct = (plannedMs - unplannedMs) / unplannedMs * 100

	// Warm: one shared cache, one untimed compile-and-train rep, then
	// timed repeats that must be served from the plan cache (hit counter and
	// result identity both checked, at the headline fan-out and at 1 and 4).
	warmOpts := plannedOptions(seed, shards)
	if _, err := engine.Evaluate(g.DB, g.Model, qCold, warmOpts); err != nil {
		return err
	}
	res.WarmPlanCacheMs, err = medianMs(engineBenchReps, func() error {
		r, err := engine.Evaluate(g.DB, g.Model, qCold, warmOpts)
		if err != nil {
			return err
		}
		if !r.PlanCacheHit {
			return fmt.Errorf("warm repeat missed the plan cache")
		}
		if r.Value != last.Value || r.Sum != last.Sum || r.Count != last.Count {
			return fmt.Errorf("warm planned evaluation diverged: %v != %v", r.Value, last.Value)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if st := warmOpts.Cache.PlanStats(); st.Hits == 0 {
		return fmt.Errorf("plan cache recorded no hits across warm reps: %+v", st)
	}
	for _, sw := range []int{1, 4} {
		o := warmOpts
		o.Shards = sw
		r, err := engine.Evaluate(g.DB, g.Model, qCold, o)
		if err != nil {
			return err
		}
		if r.Value != last.Value || r.Sum != last.Sum || r.Count != last.Count {
			return fmt.Errorf("warm planned evaluation at shards=%d diverged: %v != %v", sw, r.Value, last.Value)
		}
	}
	if res.WarmPlanCacheMs > 0 {
		res.PlanCacheSpeedup = res.ColdWhatIfPlannedMs / res.WarmPlanCacheMs
	}

	// Matched plan-cache pair: the WHEN query with each side's estimator
	// cache warmed by interleavedMs's untimed first pair, so the only
	// difference left is the plan cache + pushdown against the row loop.
	qWhen := parse(`USE German WHEN Sex = 1 AND Age = 2 UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`)
	whenRef, err := engine.Evaluate(g.DB, g.Model, qWhen, engine.Options{Seed: seed, Shards: shards})
	if err != nil {
		return err
	}
	matched := func(side string, r *engine.Result, err error) error {
		if err == nil && (r.Value != whenRef.Value || r.Sum != whenRef.Sum || r.Count != whenRef.Count) {
			err = fmt.Errorf("matched %s evaluation diverged: %v != %v", side, r.Value, whenRef.Value)
		}
		return err
	}
	plannedOpts := plannedOptions(seed, shards)
	unplannedOpts := engine.Options{Seed: seed, Shards: shards, Cache: engine.NewCache()}
	compiled := false
	res.WarmPlannedMatchedMs, res.WarmUnplannedMatchedMs, err = interleavedMs(tracingOverheadReps, func() error {
		r, err := engine.Evaluate(g.DB, g.Model, qWhen, plannedOpts)
		if err == nil && compiled && !r.PlanCacheHit {
			return fmt.Errorf("matched planned rep missed the plan cache")
		}
		compiled = true
		return matched("planned", r, err)
	}, func() error {
		r, err := engine.Evaluate(g.DB, g.Model, qWhen, unplannedOpts)
		return matched("unplanned", r, err)
	})
	if err != nil {
		return err
	}
	res.PlanCacheSpeedupMatched = res.WarmUnplannedMatchedMs / res.WarmPlannedMatchedMs

	qHow, err := hyperql.ParseHowTo(`
		USE German
		HOWTOUPDATE Status, Savings, Housing, CreditAmount
		TOMAXIMIZE COUNT(Credit = 1)`)
	if err != nil {
		return err
	}
	var howRes *howto.Result
	res.HowToMs, err = medianMs(engineBenchReps, func() error {
		r, err := howto.Evaluate(g.DB, g.Model, qHow, howto.Options{Engine: engine.Options{Seed: seed, Shards: shards}})
		howRes = r
		return err
	})
	if err != nil {
		return err
	}
	res.HowToCandidates = howRes.Candidates
	prev := runtime.GOMAXPROCS(1)
	res.HowToSerialMs, err = medianMs(engineBenchReps, func() error {
		_, err := howto.Evaluate(g.DB, g.Model, qHow, howto.Options{Engine: engine.Options{Seed: seed}})
		return err
	})
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}

	// Estimator fit+predict micro-benchmark over the encoded view, the same
	// features a discrete what-if conditions on.
	featCols := []string{"Status", "Age", "Sex", "Savings", "Housing"}
	enc := ml.NewEncoder(rel, featCols)
	X := enc.Matrix(rel)
	y := make([]float64, rel.Len())
	ci := rel.Schema().MustIndex("Credit")
	for i := 0; i < rel.Len(); i++ {
		if rel.Row(i)[ci].AsInt() == 1 {
			y[i] = 1
		}
	}
	fit := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if f := ml.FitFreqKeep(X, y, 1); f.Support() == 0 {
				b.Fatal("empty support")
			}
		}
	})
	res.FreqFitNsPerOp = fit.NsPerOp()
	res.FreqFitAllocsPerOp = fit.AllocsPerOp()
	fitted := ml.FitFreqKeep(X, y, 1)
	pred := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if v := fitted.Predict(X[i%len(X)]); v < 0 {
				b.Fatal("negative mean")
			}
		}
	})
	res.FreqPredictNsPerOp = pred.NsPerOp()
	res.FreqPredictAllocsPerOp = pred.AllocsPerOp()

	// Shard sweep: cold what-if under increasing worker fan-out at two
	// dataset sizes. The engine guarantees identical values across the
	// sweep; any value drift here is a determinism bug, so it is checked.
	var baseline [2]float64
	for si, size := range []int{5000, 50000} {
		gs := dataset.GermanSyn(size, seed)
		for _, sw := range []int{1, 2, 4, 8} {
			var r *engine.Result
			ms, err := medianMs(3, func() error {
				var err error
				r, err = engine.Evaluate(gs.DB, gs.Model, qCold, engine.Options{Seed: seed, Shards: sw})
				return err
			})
			if err != nil {
				return err
			}
			if sw == 1 {
				baseline[si] = r.Value
			} else if r.Value != baseline[si] {
				return fmt.Errorf("shard sweep: rows=%d shards=%d value %v != shards=1 value %v",
					size, sw, r.Value, baseline[si])
			}
			res.ShardSweep = append(res.ShardSweep, shardSweepPoint{
				Rows:         size,
				Shards:       sw,
				PlanShards:   r.ShardPlan,
				ColdWhatIfMs: ms,
				TuplesPerSec: float64(size) / (ms / 1000),
			})
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
	fmt.Printf("rows=%d  cold=%.2fms cold+for=%.2fms models=%d  howto=%.1fms serial=%.1fms (%d candidates)\n",
		res.Rows, res.ColdWhatIfMs, res.ColdWhatIfForMs, res.TrainedModels,
		res.HowToMs, res.HowToSerialMs, res.HowToCandidates)
	fmt.Printf("tracing: cold traced=%.2fms untraced=%.2fms overhead=%+.2f%%\n",
		res.ColdWhatIfTracedMs, untracedMs, res.TracingOverheadPct)
	fmt.Printf("metering: cold metered=%.2fms unmetered=%.2fms overhead=%+.2f%%\n",
		res.ColdWhatIfMeteredMs, unmeteredMs, res.MeteringOverheadPct)
	fmt.Printf("planner: cold planned=%.2fms unplanned=%.2fms overhead=%+.2f%% warm=%.3fms speedup=%.1fx\n",
		res.ColdWhatIfPlannedMs, res.ColdWhatIfUnplannedMs, res.PlannerOverheadPct, res.WarmPlanCacheMs, res.PlanCacheSpeedup)
	fmt.Printf("planner (WHEN, estimators warm): planned=%.3fms unplanned=%.3fms speedup=%.2fx\n",
		res.WarmPlannedMatchedMs, res.WarmUnplannedMatchedMs, res.PlanCacheSpeedupMatched)
	fmt.Printf("freq fit %d ns/op %d allocs/op  predict %d ns/op %d allocs/op\n",
		res.FreqFitNsPerOp, res.FreqFitAllocsPerOp, res.FreqPredictNsPerOp, res.FreqPredictAllocsPerOp)
	for _, p := range res.ShardSweep {
		fmt.Printf("sweep rows=%-6d shards=%d (plan %d): cold=%.2fms %.0f tuples/s\n",
			p.Rows, p.Shards, p.PlanShards, p.ColdWhatIfMs, p.TuplesPerSec)
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}
