package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"hyper/internal/dataset"
	"hyper/internal/server"
)

const freshWhatIfs = 3 // distinct what-ifs per analysis, then one how-to

// fresh: cold analyses by one closed-loop client; every analysis creates
// its own session, so its first query misses every cache.
func fresh(r *run) error {
	f := &freshRun{run: r, dss: freshDatasets(), ans: newAnswers()}
	var err error
	f.srv, err = setupMedian(r, func() (*served, error) {
		s, err := startServer()
		if err != nil {
			return nil, err
		}
		// One throwaway analysis loads the code paths a first request would
		// otherwise pay for inside the timed phase.
		if _, err := s.createSession("warmup", "german", f.dss[0].scale); err != nil {
			return s, err
		}
		if _, _, err := s.whatIf("warmup", f.dss[0].whatifs[0].src, 0, false); err != nil {
			return s, err
		}
		_, err = s.deleteSession("warmup")
		return s, err
	}, func(s *served) { s.stop() })
	if f.srv != nil {
		defer f.srv.stop()
	}
	if err != nil {
		return err
	}

	// Analyses rotate over the datasets and the timed phase ends only after
	// a whole rotation, so every run has the same mix; the seed orders each
	// visit's what-ifs (which one pays for the cold view) and picks the
	// starting dataset.
	rng := r.rng(1)
	offset := rng.Intn(len(f.dss))
	analysis := 0
	active := r.phases(func(budget float64, traced bool) float64 {
		start := time.Now()
		until := start.Add(time.Duration(budget * float64(time.Second)))
		for time.Now().Before(until) {
			for range f.dss {
				di := (offset + analysis) % len(f.dss)
				f.analysis(fmt.Sprintf("a%d", analysis), di, rng.Perm(freshWhatIfs), analysis/len(f.dss), traced)
				analysis++
			}
		}
		return time.Since(start).Seconds()
	})
	f.cd.report(r)
	if !r.trace {
		ops := 0
		for _, k := range []string{opCreate, opWhatIf, opHowTo, opDelete} {
			ops += r.rec.count(k)
		}
		r.rep.add("ops_per_s", float64(ops)/active, "1/s")
		r.rep.addLatency("whatif", r.rec.lat[opWhatIf], true)
		r.rep.addLatency("howto", r.rec.lat[opHowTo], false)
		r.rep.addLatency("session_create", r.rec.lat[opCreate], false)
		r.rep.add("heap_live_mb", heapLiveMB(), "MB")
	}
	f.srv.stop()
	// The benchmark's own copies of the data are built only now, so they
	// stay out of heap_live_mb; the traced run's replays use them too.
	for _, ds := range f.dss {
		f.dbs = append(f.dbs, build(ds.name, ds.scale))
	}
	f.check()
	return nil
}

// freshRun is the state of one fresh workload execution.
type freshRun struct {
	*run
	srv  *served
	dss  []freshDataset
	dbs  []dbSet // built after the timed phase
	ans  *answers
	hows []howAnswer
	cd   cacheDelta
}

// howAnswer is one served how-to, checked against the oracle afterwards.
type howAnswer struct {
	ds      int
	src     string
	choices []server.HowToChoice
}

// analysis runs one cold analysis on dataset di: create a session, its
// what-ifs in the given order, one how-to (alternating by visit), delete.
func (f *freshRun) analysis(name string, di int, order []int, visit int, traced bool) {
	r, srv, ds := f.run, f.srv, f.dss[di]
	d := func() dbSet { return f.dbs[di] }
	lat, err := srv.createSession(name, ds.name, ds.scale)
	if !r.rec.op(opCreate, lat, err) {
		return
	}
	for j, k := range order {
		q := ds.whatifs[k]
		opStart := time.Now()
		resp, lat, err := srv.whatIf(name, q.src, 0, traced)
		if !r.rec.op(opWhatIf, lat, err) {
			continue
		}
		f.ans.add(answerKey{dataset: ds.name, src: q.src}, resp.Value)
		if j == 0 && resp.TrainedModels == 0 {
			r.rep.guard("fresh analysis %s: first what-if trained no model (a training cache hit)", name)
		}
		if traced {
			cs := clientSpan(opWhatIf, opStart, lat)
			r.lay.addWhatIf(cs, resp.Trace, resp.TotalMs)
			r.replayWhatIf(cs, ds.name, d, q.src, resp.TrainedModels)
			r.lay.keep(cs)
		}
	}
	h := ds.howtos[visit%len(ds.howtos)]
	opStart := time.Now()
	resp, lat, err := srv.howTo(name, h.src, traced)
	if r.rec.op(opHowTo, lat, err) {
		f.hows = append(f.hows, howAnswer{ds: di, src: h.src, choices: resp.Choices})
		if traced {
			cs := clientSpan(opHowTo, opStart, lat)
			r.replayHowTo(cs, ds.name, d, h.src)
			r.lay.keep(cs)
			if err := r.howtoUsage(srv, name); err != nil {
				r.rec.wrong("usage %s: %v", name, err)
			}
		}
	}
	if info, err := srv.sessionInfo(name); err == nil {
		f.cd.addInfo(info, server.SessionInfo{})
	} else {
		r.rec.wrong("session info %s: %v", name, err)
	}
	lat, err = srv.deleteSession(name)
	r.rec.op(opDelete, lat, err)
}

// check runs the what-if and how-to oracles and the German-Syn accuracy.
func (f *freshRun) check() {
	byName := map[string]int{}
	for i, ds := range f.dss {
		byName[ds.name] = i
	}
	germanWorld := dataset.GermanSyn(int(5000*f.dss[0].scale), dataSeed).World
	var errs []float64
	checkWhatIfs(f.run, f.ans, func(k answerKey) dbSet { return f.dbs[byName[k.dataset]] }, func(k answerKey, q *germanQ, v float64) {
		errs = append(errs, math.Abs(v-q.truth(germanWorld))/float64(germanWorld.Rel.Len()))
	}, germanByText(f.dss[0].whatifs))
	f.addAbsErr(errs)

	// How-to oracle: each distinct how-to once, same chosen updates.
	type howKey struct {
		ds  int
		src string
	}
	want := map[howKey][]string{}
	for _, h := range f.hows {
		k := howKey{h.ds, h.src}
		if _, ok := want[k]; !ok {
			want[k] = oracleHowTo(f.dbs[h.ds], h.src)
		}
		got := make([]string, len(h.choices))
		for i, c := range h.choices {
			got[i] = c.Attr + ": " + c.Update
		}
		if strings.Join(got, "; ") != strings.Join(want[k], "; ") {
			f.rec.wrong("howto on %s chose [%s], oracle [%s]", f.dss[h.ds].name, strings.Join(got, "; "), strings.Join(want[k], "; "))
		}
	}
}

// howtoUsage reads the session's how-to cost meter from /v1/usage.
func (r *run) howtoUsage(srv *served, session string) error {
	rows, err := srv.usage(session)
	if err != nil {
		return err
	}
	for _, row := range rows {
		if row.Kind != "howto" || row.Cost == nil || row.Count == 0 {
			continue
		}
		n := float64(row.Count)
		r.lay.add("howto.whatif_evals", float64(row.Cost.WhatIfEvals)/n)
		r.lay.add("howto.ip_nodes", float64(row.Cost.IPNodes)/n)
	}
	return nil
}
