package main

import (
	"fmt"
	"math"
	"sort"

	"hyper/internal/engine"
	"hyper/internal/howto"
	"hyper/internal/hyperql"
)

// oracleWhatIf evaluates a what-if with engine.Evaluate on the benchmark's
// own build of the data, with no engine or plan cache: the served value of
// the same query must be bit-identical to it.
func oracleWhatIf(d dbSet, src string) (float64, error) {
	q, err := hyperql.ParseWhatIf(src)
	if err != nil {
		return 0, err
	}
	res, err := engine.Evaluate(d.db, d.model, q, engine.Options{})
	if err != nil {
		return 0, err
	}
	return res.Value, nil
}

// oracleHowTo returns the updates howto.Evaluate chooses, rendered like the
// server's choices.
func oracleHowTo(d dbSet, src string) []string {
	q, err := hyperql.ParseHowTo(src)
	if err != nil {
		return []string{"parse error: " + err.Error()}
	}
	res, err := howto.Evaluate(d.db, d.model, q, howto.Options{})
	if err != nil {
		return []string{"error: " + err.Error()}
	}
	out := make([]string, len(res.Choices))
	for i, c := range res.Choices {
		out[i] = c.Attr + ": " + c.String()
	}
	return out
}

// checkWhatIfs evaluates every distinct served what-if once with the oracle
// and marks each served value that is not bit-identical as a failure.
// dbFor builds the data a key was served from (called once per dataset and
// row count); onGerman receives the oracle value of each distinct German-Syn
// query with ground truth.
func checkWhatIfs(r *run, ans *answers, dbFor func(answerKey) dbSet, onGerman func(answerKey, *germanQ, float64), germans map[string]*germanQ) {
	keys := make([]answerKey, 0, len(ans.vals))
	for k := range ans.vals {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.dataset != b.dataset {
			return a.dataset < b.dataset
		}
		if a.rows != b.rows {
			return a.rows < b.rows
		}
		return a.src < b.src
	})
	type dataKey struct {
		dataset string
		rows    int
	}
	built := map[dataKey]dbSet{}
	for _, k := range keys {
		dk := dataKey{k.dataset, k.rows}
		d, ok := built[dk]
		if !ok {
			d = dbFor(k)
			built[dk] = d
		}
		want, err := oracleWhatIf(d, k.src)
		if err != nil {
			r.rec.wrong("oracle %s: %v", k.src, err)
			continue
		}
		for _, v := range ans.vals[k] {
			if math.Float64bits(v) != math.Float64bits(want) {
				r.rec.wrong("%s (rows %d): served %v, oracle %v", short(k.src), k.rows, v, want)
			}
		}
		if g := germans[k.src]; g != nil && k.dataset == "german" && onGerman != nil {
			onGerman(k, g, want)
		}
	}
}

func short(s string) string {
	if len(s) > 96 {
		return fmt.Sprintf("%s...", s[:96])
	}
	return s
}
