package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"hyper/internal/dataset"
	"hyper/internal/dist"
	"hyper/internal/ml"
	"hyper/internal/prcm"
	"hyper/internal/relation"
	"hyper/internal/server"
	"hyper/internal/shard"
)

// Grow sizes.
const (
	growGermanScale = 4  // 20k rows at the start of every session
	growEpoch       = 32 // appends per session before it is replaced
	growQueryEvery  = 8  // appends between head queries
	growBatchMin    = 32 // rows per append: growBatchMin + [0, growBatchSpan)
	growBatchSpan   = 65
)

// growRows is the row stream of the grow workload: the German-Syn base
// relation followed by rows generated by the same SEM (with the benchmark
// seed), renumbered to continue the key. Noise stays aligned with rows, so
// every prefix has exact counterfactual ground truth. The base is built
// only after the timed phase (load), so it does not count in the heap the
// benchmark measures.
type growRows struct {
	baseRows int
	rows     []relation.Tuple // appended rows, keys from baseRows on
	noise    [][]float64
	head     string // CSV header
	base     *dataset.Single
}

func newGrowRows(seed int64) *growRows {
	extra := dataset.GermanSyn(growEpoch*(growBatchMin+growBatchSpan), dataSeed+1+seed).World
	g := &growRows{baseRows: 5000 * growGermanScale, noise: extra.Noise,
		head: strings.Join(extra.Rel.Schema().Names(), ",")}
	for i, t := range extra.Rel.Rows() {
		c := t.Clone()
		c[0] = relation.Int(int64(g.baseRows + i))
		g.rows = append(g.rows, c)
	}
	return g
}

// load builds the base relation (the server's own build of the session).
func (g *growRows) load() {
	if g.base == nil {
		g.base = dataset.GermanSyn(g.baseRows, dataSeed)
	}
}

// csv renders rows [from, to) of the stream as an append body; from is at
// least baseRows.
func (g *growRows) csv(from, to int) string {
	var b strings.Builder
	b.WriteString(g.head)
	b.WriteByte('\n')
	for _, t := range g.rows[from-g.baseRows : to-g.baseRows] {
		for i, v := range t {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// prefix builds a fresh database and SEM world holding the first n rows of
// the stream; load must have run.
func (g *growRows) prefix(n int) (dbSet, *prcm.World) {
	sem := g.base.World.SEM
	rel := relation.NewRelation(sem.RelName, sem.Schema())
	rows := append(append([]relation.Tuple(nil), g.base.World.Rel.Rows()...), g.rows[:n-g.baseRows]...)
	for _, t := range rows {
		if err := rel.Insert(t); err != nil {
			panic(err) // keys are sequential
		}
	}
	noise := append(append([][]float64(nil), g.base.World.Noise...), g.noise[:n-g.baseRows]...)
	db := relation.NewDatabase()
	db.MustAdd(rel)
	return dbSet{db: db, model: g.base.Model}, &prcm.World{SEM: sem, Rel: rel, Noise: noise}
}

// grow: appends beside reads by one closed-loop client. Each session takes
// growEpoch appends and is then replaced by a fresh one (outside the timed
// phase), which bounds the memory the benchmark holds.
func grow(r *run) error {
	gr := newGrowRows(r.seed)
	qs := variants(germanPool())
	epoch := 0
	name := func() string { return fmt.Sprintf("grow%d", epoch) }
	srv, err := setupMedian(r, func() (*served, error) {
		s, err := startServer()
		if err != nil {
			return nil, err
		}
		_, err = s.createSession(name(), "german", growGermanScale)
		return s, err
	}, func(s *served) { s.stop() })
	if srv != nil {
		defer srv.stop()
	}
	if err != nil {
		return err
	}

	type head struct {
		version int64
		rows    int
		src     string
		value   float64
	}
	ans := newAnswers()
	var cd cacheDelta
	var perAppendKB []float64
	var lastHeap float64
	rng := r.rng(2)

	// runEpoch drives one session through growEpoch appends and returns the
	// active (timed) seconds it spent.
	runEpoch := func(traced bool) (float64, error) {
		heap0 := heapLiveMB()
		var bodies []string // traced: the append bodies, replayed after the phase
		start := time.Now()
		version, rows := int64(1), gr.baseRows
		var prev *head
		query := func() {
			q := qs[rng.Intn(len(qs))]
			opStart := time.Now()
			resp, lat, err := srv.whatIf(name(), q.src, 0, traced)
			if !r.rec.op(opWhatIf, lat, err) {
				return
			}
			if resp.Snapshot != version {
				r.rec.wrong("head what-if saw version %d, want %d", resp.Snapshot, version)
			}
			ans.add(answerKey{dataset: "german", rows: rows, src: q.src}, resp.Value)
			if traced {
				cs := clientSpan(opWhatIf, opStart, lat)
				r.lay.addWhatIf(cs, resp.Trace, resp.TotalMs)
				n := rows
				r.replayWhatIf(cs, fmt.Sprintf("rows%d", n), func() dbSet { d, _ := gr.prefix(n); return d }, q.src, resp.TrainedModels)
				r.lay.keep(cs)
			}
			if prev != nil {
				asof, lat, err := srv.whatIf(name(), prev.src, prev.version, false)
				if r.rec.op(opAsOf, lat, err) && (math.Float64bits(asof.Value) != math.Float64bits(prev.value) || asof.Snapshot != prev.version) {
					r.rec.wrong("as-of v%d answered %v at v%d, head answer was %v", prev.version, asof.Value, asof.Snapshot, prev.value)
				}
			}
			prev = &head{version: version, rows: rows, src: q.src, value: resp.Value}
		}
		query()
		for i := 1; i <= growEpoch; i++ {
			n := growBatchMin + rng.Intn(growBatchSpan)
			body := gr.csv(rows, rows+n)
			resp, lat, err := srv.appendRows(name(), server.AppendRequest{Tables: []server.AppendTable{{Name: "German", Data: body}}})
			if !r.rec.op(opAppend, lat, err) {
				break // the version chain is broken; the next session starts over
			}
			if resp.Version != version+1 || resp.Rows != rows+n || resp.AppendedRows != n {
				r.rec.wrong("append of %d rows to v%d (%d rows) answered v%d with %d rows (%d appended)",
					n, version, rows, resp.Version, resp.Rows, resp.AppendedRows)
			}
			if traced {
				bodies = append(bodies, body)
			}
			version, rows = version+1, rows+n
			if i%growQueryEvery == 0 {
				query()
			}
		}
		active := time.Since(start).Seconds()
		info, err := srv.sessionInfo(name())
		if err != nil {
			return active, err
		}
		cd.addInfo(info, server.SessionInfo{})
		lastHeap = heapLiveMB()
		perAppendKB = append(perAppendKB, (lastHeap-heap0)*1024/growEpoch)
		if traced {
			r.lay.later(func() { r.replayAppends(dbSet{db: gr.base.DB, model: gr.base.Model}, bodies) })
		}
		if _, err := srv.deleteSession(name()); err != nil {
			return active, err
		}
		epoch++
		_, err = srv.createSession(name(), "german", growGermanScale)
		return active, err
	}

	var loopErr error
	active := r.phases(func(budget float64, traced bool) float64 {
		used := 0.0
		for used < budget && loopErr == nil {
			var a float64
			a, loopErr = runEpoch(traced)
			used += a
		}
		return used
	})
	if loopErr != nil {
		return loopErr
	}
	cd.report(r)
	if !r.trace {
		ops := 0
		for _, k := range []string{opAppend, opWhatIf, opAsOf} {
			ops += r.rec.count(k)
		}
		r.rep.add("ops_per_s", float64(ops)/active, "1/s")
		r.rep.addLatency("whatif", r.rec.lat[opWhatIf], true)
		r.rep.addLatency("append", r.rec.lat[opAppend], true)
		r.rep.addLatency("asof", r.rec.lat[opAsOf], false)
		r.rep.addNote("heap_live_mb", lastHeap, "MB", fmt.Sprintf("after %d appends", growEpoch))
		r.rep.addNote("heap_kb_per_append", median(perAppendKB), "KB", fmt.Sprintf("median of %d sessions", len(perAppendKB)))
	}
	srv.stop()
	gr.load()

	var errs []float64
	worlds := map[int]*prcm.World{}
	checkWhatIfs(r, ans, func(k answerKey) dbSet {
		d, w := gr.prefix(k.rows)
		worlds[k.rows] = w
		return d
	}, func(k answerKey, q *germanQ, v float64) {
		w := worlds[k.rows]
		errs = append(errs, math.Abs(v-q.truth(w))/float64(k.rows))
	}, germanByText(qs))
	r.addAbsErr(errs)
	return nil
}

// replayAppends replays one traced session's appends on the benchmark's own
// copy of the data, timing each module call of the server's append path:
// parse, extend, digest advance and delta frame.
func (r *run) replayAppends(base dbSet, bodies []string) {
	db := base.db
	digest := ml.NewRelationDigest(shard.DefaultTargetRows)
	digest.Advance(db.Relation("German"))
	frame := dist.NewFrame(db, base.model)
	for _, body := range bodies {
		cs := &span{Name: opAppend, StartUs: time.Now().UnixMicro()}
		var tuples []relation.Tuple
		var err error
		r.lay.timed(cs, "relation.parse_append_ms", false, func() {
			tuples, err = db.Relation("German").ParseAppendRows(strings.NewReader(body), 0)
		})
		if err != nil {
			r.rec.wrong("replay ParseAppendRows: %v", err)
			return
		}
		appends := map[string][]relation.Tuple{"German": tuples}
		var next *relation.Database
		a0 := allocBytes()
		r.lay.timed(cs, "relation.extend_ms", false, func() { next, err = db.Extend(appends) })
		r.lay.add("relation.extend_alloc_kb", float64(allocBytes()-a0)/1024)
		if err != nil {
			r.rec.wrong("replay Extend: %v", err)
			return
		}
		r.lay.timed(cs, "ml.digest_advance_ms", false, func() { digest.Advance(next.Relation("German")) })
		r.lay.timed(cs, "dist.frame_delta_ms", false, func() { frame = dist.NewFrameDelta(frame, next, base.model, appends) })
		db = next
		r.lay.keep(cs)
	}
}
