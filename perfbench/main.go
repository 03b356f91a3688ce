// Command perfbench is the served-path benchmark of the repository. It
// starts an in-process internal/server on a loopback listener, drives only
// the resource routes (/v1/sessions/...) with closed-loop clients, checks
// every answer against an engine.Evaluate oracle, and prints the metrics of
// one workload. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end figures, with --trace 1 the
// per-layer figures of a traced run. Run it through run.sh from the
// repository root, which builds it first:
//
//	bash perfbench/run.sh --workload explore --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads and the metric catalogue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
)

var workloads = map[string]func(*run) error{
	"explore": explore,
	"fresh":   fresh,
	"grow":    grow,
}

// endToEnd are the figures every --trace 0 run reports in its result line:
// the ones that occur on every workload, are never zero, and repeat within
// a usable bound from run to run. The rest (whatif_tail_ms, howto_p50_ms,
// append_p50_ms, ...) are printed above it.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"whatif_p50_ms", "ms"},
	{"heap_live_mb", "MB"},
}

// perLayer lists every per-layer figure with its unit; a --trace 1 run
// reports all of them (0 for a layer the workload does not exercise).
var perLayer = []struct{ name, unit string }{
	{"server.overhead_ms", "ms"},
	{"hyperql.parse_us", "us"},
	{"plan.compile_ms", "ms"},
	{"plan.hit_rate", "frac"},
	{"engine.cache_hit_rate", "frac"},
	{"engine.view_ms", "ms"},
	{"engine.blocks_ms", "ms"},
	{"engine.plan_ms", "ms"},
	{"engine.train_ms", "ms"},
	{"engine.eval_ms", "ms"},
	{"engine.fold_ms", "ms"},
	{"engine.unattributed_ms", "ms"},
	{"sqlmini.select_ms", "ms"},
	{"causal.rowblocks_ms", "ms"},
	{"ml.frame_ms", "ms"},
	{"ml.models_trained", "count"},
	{"ml.digest_advance_ms", "ms"},
	{"howto.candidates", "count"},
	{"howto.candidates_ms", "ms"},
	{"howto.whatif_evals", "count"},
	{"howto.ip_nodes", "count"},
	{"relation.parse_append_ms", "ms"},
	{"relation.extend_ms", "ms"},
	{"relation.extend_alloc_kb", "KB"},
	{"dist.frame_delta_ms", "ms"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"bench.trace_overhead_pct", "%"},
}

func main() {
	workload := flag.String("workload", "", "explore | fresh | grow")
	seed := flag.Int64("seed", 1, "seed of the request streams")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer figures")
	out := flag.String("out", "", "directory for the traced run's span trees (optional)")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		os.Exit(2)
	}
	code, err := execute(os.Stdout, *workload, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	os.Exit(code)
}

// execute runs one workload and prints its figures and result line to w.
// It returns the exit code: 0 only when every operation succeeded and every
// answer and design guard checked out; an error means no result was printed.
func execute(w io.Writer, workload string, seed int64, seconds float64, trace bool, spans string) (int, error) {
	fn, ok := workloads[workload]
	if !ok || seconds <= 0 {
		return 2, fmt.Errorf("need --workload explore|fresh|grow and --seconds > 0")
	}
	r := &run{seed: seed, seconds: seconds, trace: trace, spans: spans,
		rec: newRecorder(), rep: &report{workload: workload}}
	if r.trace {
		r.lay = newLayers()
	}
	printEnv(w, r)
	if err := fn(r); err != nil {
		return 1, fmt.Errorf("%s: %w", workload, err)
	}
	r.finishTrace()
	if r.trace {
		if err := r.lay.writeSpans(r.spans, workload); err != nil {
			return 1, fmt.Errorf("writing spans: %w", err)
		}
	}
	return finish(w, r), nil
}

// printEnv prints the environment block: what the figures were measured on.
func printEnv(w io.Writer, r *run) {
	env := map[string]any{
		"gomaxprocs":            runtime.GOMAXPROCS(0),
		"num_cpu":               runtime.NumCPU(),
		"go_version":            runtime.Version(),
		"seed":                  r.seed,
		"seconds":               r.seconds,
		"effective_parallelism": spinParallelism(),
		"sizes": map[string]any{
			"explore": map[string]any{"german_rows": 5000 * exploreGermanScale, "amazon_scale": exploreAmazonScale, "clients": exploreClients},
			"fresh":   map[string]any{"german_rows": 5000 * exploreGermanScale, "amazon_scale": 1, "student_scale": 1, "whatifs_per_analysis": freshWhatIfs, "clients": 1},
			"grow": map[string]any{"german_rows": 5000 * growGermanScale, "appends_per_session": growEpoch,
				"query_every": growQueryEvery, "batch_rows": fmt.Sprintf("%d-%d", growBatchMin, growBatchMin+growBatchSpan-1), "clients": 1},
		},
	}
	b, _ := json.Marshal(env) // plain maps of numbers and strings
	fmt.Fprintf(w, "env %s\n", b)
}

// finish prints the human-readable figures and the result line, and
// returns the exit code.
func finish(w io.Writer, r *run) int {
	rep := r.rep
	r.rec.mu.Lock()
	rep.attempted, rep.failed, rep.reasons = r.rec.attempted, r.rec.failed, r.rec.reasons
	r.rec.mu.Unlock()
	failedFrac := 0.0
	if rep.attempted > 0 {
		failedFrac = float64(rep.failed) / float64(rep.attempted)
	}
	result := map[string]map[string]any{}
	emit := func(name string, v float64, unit, note string) {
		line := fmt.Sprintf("%s %-26s %14.6g %s", rep.workload, name, v, unit)
		if note != "" {
			line += "  (" + note + ")"
		}
		fmt.Fprintln(w, line)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.guard("metric %s is not a finite number", name)
			return
		}
		result[name] = map[string]any{"value": v, "unit": unit}
	}
	if r.trace {
		for _, m := range perLayer {
			emit(m.name, r.lay.mean(m.name), m.unit, "")
		}
		fmt.Fprintf(w, "%s traced what-ifs decomposed: %d (client = server.overhead + total_ms = overhead + stages + unattributed); inconsistent splits: %d\n",
			rep.workload, r.lay.decomposed, r.lay.badSplit)
		if r.lay.badSplit > 0 {
			rep.guard("%d traced what-ifs had spans that do not nest in the client latency", r.lay.badSplit)
		}
	} else {
		sort.SliceStable(rep.metrics, func(i, j int) bool { return rep.metrics[i].name < rep.metrics[j].name })
		for _, m := range rep.metrics {
			emit(m.name, m.value, m.unit, m.note)
		}
		emit("failed_frac", failedFrac, "frac", fmt.Sprintf("%d of %d operations", rep.failed, rep.attempted))
		for _, m := range endToEnd {
			if _, ok := result[m.name]; !ok {
				rep.guard("end-to-end metric %s was not measured", m.name)
			}
		}
		for name := range result {
			if !isEndToEnd(name) {
				delete(result, name)
			}
		}
	}
	for _, g := range rep.guards {
		fmt.Fprintf(w, "%s GUARD FAILED: %s\n", rep.workload, g)
	}
	for _, reason := range rep.reasons {
		fmt.Fprintf(w, "%s FAILURE: %s\n", rep.workload, reason)
	}
	correct := rep.failed == 0 && len(rep.guards) == 0 && rep.attempted > 0
	line, _ := json.Marshal(map[string]any{
		"correct": correct, "attempted": rep.attempted, "failed": rep.failed + len(rep.guards), "metrics": result,
	})
	fmt.Fprintln(w, string(line))
	if !correct {
		return 1
	}
	return 0
}

func isEndToEnd(name string) bool {
	for _, m := range endToEnd {
		if m.name == name {
			return true
		}
	}
	return false
}
