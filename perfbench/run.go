package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hyper/internal/causal"
	"hyper/internal/dataset"
	"hyper/internal/howto"
	"hyper/internal/hyperql"
	"hyper/internal/ml"
	"hyper/internal/relation"
	"hyper/internal/server"
	"hyper/internal/sqlmini"
)

// setup_s is the median of repeated set-ups: at least setupMinReps, more
// while they have taken under setupMinSeconds, at most setupMaxReps, so a
// cheap set-up is still timed over enough work.
const (
	setupMinReps    = 3
	setupMaxReps    = 15
	setupMinSeconds = 2.0
)

// run carries one workload execution.
type run struct {
	seed    int64
	seconds float64
	trace   bool
	spans   string // directory the traced run writes its span trees to
	rec     *recorder
	lay     *layers
	rep     *report

	// Trace-mode split: the first half of the timed phase runs untraced
	// and gives the baseline for bench.trace_overhead_pct and the runtime
	// counters; the second half is traced.
	halfOps   int
	halfLatMs float64
	halfRt    [2]rtSample
}

func (r *run) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(r.seed*1_000_003 + stream))
}

// phases runs loop over the timed phase: once untraced for the whole
// phase, or (trace mode) an untraced half then a traced half. loop gets
// the active-time budget in seconds and whether to trace, and returns the
// active time it used. It reports the total active seconds.
func (r *run) phases(loop func(budget float64, traced bool) float64) float64 {
	if !r.trace {
		return loop(r.seconds, false)
	}
	r.halfRt[0] = readRuntime()
	first := loop(r.seconds/2, false)
	r.halfRt[1] = readRuntime()
	r.halfOps, r.halfLatMs = r.opTotals()
	return first + loop(r.seconds-first, true)
}

// opTotals is the number and summed latency of successful operations.
func (r *run) opTotals() (int, float64) {
	r.rec.mu.Lock()
	defer r.rec.mu.Unlock()
	n, sum := 0, 0.0
	for _, xs := range r.rec.lat {
		n += len(xs)
		for _, x := range xs {
			sum += x
		}
	}
	return n, sum
}

// finishTrace adds the runtime and tracing-overhead layer figures.
func (r *run) finishTrace() {
	if !r.trace {
		return
	}
	r.lay.runPending()
	d := r.halfRt
	if r.halfOps > 0 {
		r.lay.add("runtime.allocs_per_op", float64(d[1].mallocs-d[0].mallocs)/float64(r.halfOps))
	}
	if cpu := d[1].cpu - d[0].cpu; cpu > 0 {
		r.lay.add("runtime.gc_cpu_frac", (d[1].gcCPU-d[0].gcCPU)/cpu)
	}
	n, sum := r.opTotals()
	if r.halfOps > 0 && n > r.halfOps {
		untraced := r.halfLatMs / float64(r.halfOps)
		traced := (sum - r.halfLatMs) / float64(n-r.halfOps)
		r.lay.add("bench.trace_overhead_pct", 100*(traced/untraced-1))
	}
}

// setupMedian repeats setup, keeps the last result and reports the median
// set-up time as setup_s; earlier set-ups are torn down. On error the
// failed set-up is returned for the caller to tear down.
func setupMedian[T any](r *run, setup func() (T, error), teardown func(T)) (T, error) {
	var secs []float64
	spent := 0.0
	for {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return v, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(start).Seconds()
		secs = append(secs, d)
		spent += d
		n := len(secs)
		if n >= setupMaxReps || (n >= setupMinReps && spent >= setupMinSeconds) {
			r.rep.addNote("setup_s", median(secs), "s", fmt.Sprintf("median of %d set-ups", n))
			return v, nil
		}
		teardown(v)
	}
}

// answerKey identifies one distinct what-if for the oracle: the dataset
// build, its row count (grow versions), and the query text.
type answerKey struct {
	dataset string
	rows    int
	src     string
}

// answers collects served values by distinct what-if.
type answers struct {
	mu   sync.Mutex
	vals map[answerKey][]float64
}

func newAnswers() *answers { return &answers{vals: make(map[answerKey][]float64)} }

func (a *answers) add(k answerKey, v float64) {
	a.mu.Lock()
	a.vals[k] = append(a.vals[k], v)
	a.mu.Unlock()
}

// cacheDelta accumulates engine and plan cache counters across sessions.
type cacheDelta struct{ hits, misses, planHits, planMisses float64 }

func (c *cacheDelta) addInfo(after, before server.SessionInfo) {
	c.hits += float64(after.Cache.Hits - before.Cache.Hits)
	c.misses += float64(after.Cache.Misses - before.Cache.Misses)
	c.planHits += float64(after.Plan.Hits - before.Plan.Hits)
	c.planMisses += float64(after.Plan.Misses - before.Plan.Misses)
}

func rate(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// report adds engine.cache_hit_rate (both modes: it guards the workload
// design) and, traced, plan.hit_rate.
func (c *cacheDelta) report(r *run) float64 {
	hr := rate(c.hits, c.misses)
	if r.trace {
		r.lay.add("engine.cache_hit_rate", hr)
		r.lay.add("plan.hit_rate", rate(c.planHits, c.planMisses))
	} else {
		r.rep.add("engine.cache_hit_rate", hr, "frac")
	}
	return hr
}

// dbSet is the benchmark's own build of a dataset: the same registry entry and seed
// the server uses, so oracle, ground truth and module replays see the
// served data.
type dbSet struct {
	db    *relation.Database
	model *causal.Model
}

func build(name string, scale float64) dbSet {
	b, err := dataset.Lookup(name)
	if err != nil {
		panic(err) // names are constants of this program
	}
	db, model := b.Build(scale, dataSeed)
	return dbSet{db: db, model: model}
}

// replayWhatIf times the module calls a what-if exercises, on the
// benchmark's own copy of the data: parse (inline, it is cheap), then,
// after the timed phase, the USE sub-select, row blocks and the encoded
// frame. d supplies the data when the replay runs.
func (r *run) replayWhatIf(cs *span, key string, d func() dbSet, src string, trained int) {
	var q hyperql.Query
	var err error
	r.lay.timed(cs, "hyperql.parse_us", true, func() { q, err = hyperql.Parse(src) })
	if err != nil {
		r.rec.wrong("replay parse: %v", err)
		return
	}
	r.lay.add("ml.models_trained", float64(trained))
	if w, ok := q.(*hyperql.WhatIf); ok && r.lay.replay(key+"|"+src) {
		r.lay.later(func() { r.replayView(cs, d(), w.Use) })
	}
}

func (r *run) replayView(cs *span, d dbSet, use *hyperql.UseClause) {
	view := d.db.Relation(use.Table)
	var err error
	if use.Select != nil {
		r.lay.timed(cs, "sqlmini.select_ms", false, func() { view, err = sqlmini.RunSelect(d.db, use.Select, "view") })
	}
	var blocksErr error
	r.lay.timed(cs, "causal.rowblocks_ms", false, func() { _, _, blocksErr = causal.RowBlocks(d.db, d.model) })
	if err == nil {
		err = blocksErr
	}
	if err != nil || view == nil {
		r.rec.wrong("replay of the view %s: %v", use, err)
		return
	}
	var cols []string
	for _, c := range view.Schema().Columns() {
		if !c.Key {
			cols = append(cols, c.Name)
		}
	}
	r.lay.timed(cs, "ml.frame_ms", false, func() { ml.NewFrame(ml.NewEncoder(view, cols), view) })
}

// replayHowTo times parse and, after the timed phase, candidate
// enumeration of a how-to.
func (r *run) replayHowTo(cs *span, key string, d func() dbSet, src string) {
	var q hyperql.Query
	var err error
	r.lay.timed(cs, "hyperql.parse_us", true, func() { q, err = hyperql.Parse(src) })
	if err != nil {
		r.rec.wrong("replay parse: %v", err)
		return
	}
	h, ok := q.(*hyperql.HowTo)
	if !ok || !r.lay.replay(key+"|"+src) {
		return
	}
	r.lay.later(func() {
		var cands map[string][]hyperql.UpdateSpec
		var err error
		db := d().db
		r.lay.timed(cs, "howto.candidates_ms", false, func() { cands, err = howto.Candidates(db, h, howto.Options{}) })
		if err != nil {
			r.rec.wrong("replay howto.Candidates: %v", err)
			return
		}
		n := 0
		for _, c := range cands {
			n += len(c)
		}
		r.lay.add("howto.candidates", float64(n))
	})
}

// germanByText maps query text to its ground-truth description.
func germanByText(qs []query) map[string]*germanQ {
	out := map[string]*germanQ{}
	for _, q := range qs {
		if q.german != nil {
			out[q.src] = q.german
		}
	}
	return out
}

func (r *run) addAbsErr(errs []float64) {
	if r.trace || len(errs) == 0 {
		return
	}
	sum := 0.0
	for _, e := range errs {
		sum += e
	}
	r.rep.addNote("whatif_abs_err", sum/float64(len(errs)), "frac", fmt.Sprintf("%d German-Syn what-ifs", len(errs)))
}
