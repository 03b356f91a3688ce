package main

import (
	"math"
	"sync"
	"time"

	"hyper/internal/dataset"
	"hyper/internal/server"
)

// Explore sizes. German-Syn rows are 5000 x scale.
const (
	exploreGermanScale = 4 // 20k rows
	exploreAmazonScale = 1
	exploreClients     = 2
)

// explore: warm, read-only exploration by two closed-loop clients over a
// skewed what-if mix whose working set fits the engine cache.
func explore(r *run) error {
	ts := exploreTemplates()
	total := 0.0
	for _, t := range ts {
		total += t.weight
	}
	sessions := []string{"german", "amazon"}
	// The benchmark's own copies of the data are built after the timed
	// phase (heap_live_mb measures the server); replays run after it too.
	var dbs map[string]dbSet
	// Warm-up answers are served answers too: they are checked with the
	// timed phase's.
	ans := newAnswers()
	srv, err := setupMedian(r, func() (*served, error) {
		s, err := startServer()
		if err != nil {
			return nil, err
		}
		if _, err := s.createSession("german", "german", exploreGermanScale); err != nil {
			return s, err
		}
		if _, err := s.createSession("amazon", "amazon", exploreAmazonScale); err != nil {
			return s, err
		}
		for _, t := range ts {
			for _, q := range t.variants {
				resp, _, err := s.whatIf(t.session, q.src, 0, false)
				if err != nil {
					return s, err
				}
				ans.add(answerKey{dataset: t.session, src: q.src}, resp.Value)
			}
		}
		return s, nil
	}, func(s *served) { s.stop() })
	if srv != nil {
		defer srv.stop()
	}
	if err != nil {
		return err
	}
	before := map[string]server.SessionInfo{}
	for _, name := range sessions {
		if before[name], err = srv.sessionInfo(name); err != nil {
			return err
		}
	}

	active := r.phases(func(budget float64, traced bool) float64 {
		start := time.Now()
		until := start.Add(time.Duration(budget * float64(time.Second)))
		var wg sync.WaitGroup
		for c := 0; c < exploreClients; c++ {
			wg.Add(1)
			stream := int64(c)
			if traced {
				stream += exploreClients
			}
			rng := r.rng(stream)
			go func() {
				defer wg.Done()
				for time.Now().Before(until) {
					t := ts[drawTemplate(rng, ts, total)]
					q := t.variants[rng.Intn(len(t.variants))]
					opStart := time.Now()
					resp, lat, err := srv.whatIf(t.session, q.src, 0, traced)
					if !r.rec.op(opWhatIf, lat, err) {
						continue
					}
					ans.add(answerKey{dataset: t.session, src: q.src}, resp.Value)
					if traced {
						cs := clientSpan(opWhatIf, opStart, lat)
						r.lay.addWhatIf(cs, resp.Trace, resp.TotalMs)
						session := t.session
						r.replayWhatIf(cs, session, func() dbSet { return dbs[session] }, q.src, resp.TrainedModels)
						r.lay.keep(cs)
					}
				}
			}()
		}
		wg.Wait()
		return time.Since(start).Seconds()
	})

	var cd cacheDelta
	for _, name := range sessions {
		after, err := srv.sessionInfo(name)
		if err != nil {
			return err
		}
		cd.addInfo(after, before[name])
	}
	if hr := cd.report(r); hr < 0.95 {
		r.rep.guard("explore engine.cache_hit_rate %.4f < 0.95 after warm-up", hr)
	}
	if !r.trace {
		r.rep.add("ops_per_s", float64(r.rec.count(opWhatIf))/active, "1/s")
		r.rep.addLatency("whatif", r.rec.lat[opWhatIf], true)
		r.rep.add("heap_live_mb", heapLiveMB(), "MB")
	}
	srv.stop()

	dbs = map[string]dbSet{
		"german": build("german", exploreGermanScale),
		"amazon": build("amazon", exploreAmazonScale),
	}
	germanWorld := dataset.GermanSyn(5000*exploreGermanScale, dataSeed).World
	var errs []float64
	checkWhatIfs(r, ans, func(k answerKey) dbSet { return dbs[k.dataset] }, func(k answerKey, q *germanQ, v float64) {
		errs = append(errs, math.Abs(v-q.truth(germanWorld))/float64(germanWorld.Rel.Len()))
	}, germanByText(variants(ts)))
	r.addAbsErr(errs)
	return nil
}
