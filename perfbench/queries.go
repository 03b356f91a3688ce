package main

import (
	"fmt"
	"math/rand"

	"hyper/internal/prcm"
)

// Datasets are built with a fixed generator seed, so the data (and with it
// whatif_abs_err) is the same for every benchmark seed; --seed drives only
// the request streams: template and literal draws, analysis order, append
// batch sizes and appended rows.
const dataSeed = 7

// amazonView is the Table 1 join with GROUP BY: per-product average rating.
const amazonView = `USE (SELECT T1.PID, T1.Category, T1.Price, T1.Brand, T1.Quality, AVG(T2.Rating) AS Rtng
  FROM Product AS T1, Review AS T2 WHERE T1.PID = T2.PID
  GROUP BY T1.PID, T1.Category, T1.Price, T1.Brand, T1.Quality)`

// amazonColorView adds the mutable Color column for how-to queries.
const amazonColorView = `USE (SELECT T1.PID, T1.Category, T1.Price, T1.Brand, T1.Quality, T1.Color, AVG(T2.Rating) AS Rtng
  FROM Product AS T1, Review AS T2 WHERE T1.PID = T2.PID
  GROUP BY T1.PID, T1.Category, T1.Price, T1.Brand, T1.Quality, T1.Color)`

// studentView aggregates grades per student; participationView joins each
// participation row with its student.
const studentView = `USE (SELECT S.SID, S.Age, S.Gender, S.Country, S.Attendance, AVG(P.Grade) AS Grade
  FROM Student AS S, Participation AS P WHERE S.SID = P.SID
  GROUP BY S.SID, S.Age, S.Gender, S.Country, S.Attendance)`

const participationView = `USE (SELECT P.SID, P.Course, P.Discussion, P.HandRaised, P.Announcements,
  P.Assignment, P.Grade, S.Age, S.Gender, S.Country, S.Attendance
  FROM Participation AS P, Student AS S WHERE P.SID = S.SID)`

// germanQ is a German-Syn what-if built from parts, so its SEM ground truth
// can be computed without re-interpreting the query text:
//
//	USE German [WHEN <when> = w] UPDATE(<attr>) = v OUTPUT COUNT(Credit = 1) [FOR PRE(<for>) = f]
type germanQ struct {
	attr    string
	val     int
	when    string
	whenVal int
	forAttr string
	forVal  int
}

func (g germanQ) src() string {
	s := "USE German"
	if g.when != "" {
		s += fmt.Sprintf(" WHEN %s = %d", g.when, g.whenVal)
	}
	s += fmt.Sprintf(" UPDATE(%s) = %d OUTPUT COUNT(Credit = 1)", g.attr, g.val)
	if g.forAttr != "" {
		s += fmt.Sprintf(" FOR PRE(%s) = %d", g.forAttr, g.forVal)
	}
	return s
}

// truth is the exact post-update count from the structural equations: the
// WHEN rows are intervened on (Intervention.Rows), every other attribute is
// recomputed with the recorded noise, and the FOR filter reads pre values.
func (g germanQ) truth(w *prcm.World) float64 {
	rel := w.Rel
	sch := rel.Schema()
	var rows map[int]bool
	if g.when != "" {
		wi := sch.MustIndex(g.when)
		rows = make(map[int]bool)
		for i := 0; i < rel.Len(); i++ {
			if rel.Row(i)[wi].AsInt() == int64(g.whenVal) {
				rows[i] = true
			}
		}
	}
	v := float64(g.val)
	post := w.Counterfactual(prcm.Intervention{Attr: g.attr, Rows: rows, Fn: func(float64) float64 { return v }})
	ci := sch.MustIndex("Credit")
	fi := -1
	if g.forAttr != "" {
		fi = sch.MustIndex(g.forAttr)
	}
	n := 0
	for i := 0; i < post.Len(); i++ {
		if fi >= 0 && rel.Row(i)[fi].AsInt() != int64(g.forVal) {
			continue
		}
		if post.Row(i)[ci].AsInt() == 1 {
			n++
		}
	}
	return float64(n)
}

// query is one concrete what-if or how-to text; german is set when the SEM
// ground truth is available for it.
type query struct {
	src    string
	german *germanQ
}

// template is a query shape with a small pool of literal variants.
type template struct {
	session  string
	weight   float64
	variants []query
}

func germanVariants(build func(i int) germanQ, n int) []query {
	out := make([]query, n)
	for i := range out {
		g := build(i)
		out[i] = query{src: g.src(), german: &g}
	}
	return out
}

func plain(format string, lits ...any) []query {
	out := make([]query, len(lits))
	for i, l := range lits {
		out[i] = query{src: fmt.Sprintf(format, l)}
	}
	return out
}

// variants flattens the templates' queries.
func variants(ts []template) []query {
	var out []query
	for _, t := range ts {
		out = append(out, t.variants...)
	}
	return out
}

// germanPool is the German-Syn what-if pool shared by explore (as templates),
// fresh and grow: WHEN-less, WHEN, FOR and WHEN+FOR shapes over every
// mutable cause of Credit.
func germanPool() []template {
	return []template{
		{"german", 0, germanVariants(func(i int) germanQ { return germanQ{attr: "Status", val: 3 - i} }, 3)},
		{"german", 0, germanVariants(func(i int) germanQ { return germanQ{attr: "Savings", val: 2 + i%2, forAttr: "Age", forVal: 1 + i/2} }, 4)},
		{"german", 0, germanVariants(func(i int) germanQ { return germanQ{attr: "Housing", val: 2, when: "Age", whenVal: i} }, 3)},
		{"german", 0, germanVariants(func(i int) germanQ {
			return germanQ{attr: "CreditAmount", val: 3 - i%2, when: "Sex", whenVal: i / 2, forAttr: "Sex", forVal: i / 2}
		}, 4)},
		{"german", 0, germanVariants(func(i int) germanQ { return germanQ{attr: "Status", val: 2, forAttr: "Housing", forVal: i} }, 3)},
		{"german", 0, germanVariants(func(i int) germanQ { return germanQ{attr: "Savings", val: 3, when: "Status", whenVal: i} }, 2)},
	}
}

// exploreTemplates is the warm mix: German-Syn shapes plus joined Amazon
// shapes. Weights fall off Zipf-like (1/rank) in this fixed order, so every
// seed sees the same mix composition and only the draw sequence changes.
func exploreTemplates() []template {
	ts := germanPool()
	ts = append(ts,
		template{"amazon", 0, plain(amazonView+" WHEN Category = '%s' UPDATE(Price) = 0.9 * PRE(Price) OUTPUT COUNT(POST(Rtng) >= 4)", "Laptop", "Phone", "Tablet")},
		template{"amazon", 0, plain(amazonView+" UPDATE(Price) = %s * PRE(Price) OUTPUT AVG(POST(Rtng))", "0.8", "1.2")},
		template{"amazon", 0, brandVariants()},
		template{"amazon", 0, plain(amazonView+" UPDATE(Quality) = %s OUTPUT COUNT(POST(Rtng) >= 4)", "0.9", "0.5")},
	)
	// Interleave so German and Amazon shapes alternate down the weight
	// ranks: neither dataset owns all the hot templates.
	order := []int{0, 6, 1, 7, 2, 8, 3, 9, 4, 5}
	out := make([]template, len(order))
	for rank, i := range order {
		out[rank] = ts[i]
		out[rank].weight = 1 / float64(rank+1)
	}
	return out
}

func brandVariants() []query {
	var out []query
	for _, b := range []string{"Apple", "Dell", "Asus"} {
		out = append(out, query{src: fmt.Sprintf(amazonView+
			" WHEN Brand = '%s' UPDATE(Price) = 0.8 * PRE(Price) OUTPUT AVG(POST(Rtng)) FOR PRE(Brand) = '%s'", b, b)})
	}
	return out
}

// freshDataset is one dataset of the fresh rotation: how its session is
// created, its what-if pool and its how-to pool.
type freshDataset struct {
	name    string
	scale   float64
	whatifs []query
	howtos  []query
}

// freshDatasets is the fresh rotation. Each dataset has exactly
// freshWhatIfs what-ifs, all run on every visit (in a seeded order), so the
// mix is the same for every seed. Cold costs separate by dataset (the
// Student-Syn student view fastest, German-Syn at 20k rows in the middle,
// the Amazon-Syn join slowest), which keeps whatif_p50_ms inside the
// German-Syn cluster instead of on the edge between two clusters.
func freshDatasets() []freshDataset {
	gp := germanPool()
	return []freshDataset{
		{name: "german", scale: exploreGermanScale,
			whatifs: []query{gp[0].variants[0], gp[1].variants[0], gp[3].variants[0]},
			howtos: []query{
				{src: "USE German HOWTOUPDATE Status, Savings, Housing, CreditAmount TOMAXIMIZE COUNT(Credit = 1)"},
				{src: "USE German HOWTOUPDATE Status, Savings, Housing LIMIT UPDATES <= 2 TOMAXIMIZE COUNT(Credit = 1)"},
			}},
		{name: "amazon", scale: 1,
			whatifs: concat(
				plain(amazonView+" WHEN Category = '%s' UPDATE(Price) = 0.9 * PRE(Price) OUTPUT COUNT(POST(Rtng) >= 4)", "Laptop"),
				brandVariants()[:1],
				plain(amazonView+" UPDATE(Quality) = %s OUTPUT AVG(POST(Rtng))", "0.9")),
			howtos: []query{
				{src: amazonColorView + " HOWTOUPDATE Price, Quality, Color TOMAXIMIZE AVG(POST(Rtng))"},
				{src: amazonColorView + " WHEN Category = 'Laptop' HOWTOUPDATE Price, Quality, Color LIMIT UPDATES <= 2 TOMAXIMIZE COUNT(POST(Rtng) >= 4)"},
			}},
		{name: "student", scale: 1,
			whatifs: concat(
				plain(studentView+" UPDATE(Attendance) = %s OUTPUT COUNT(POST(Grade) >= 60)", "9"),
				plain(studentView+" WHEN Attendance >= %[1]s UPDATE(Attendance) = 9 OUTPUT AVG(POST(Grade)) FOR PRE(Attendance) >= %[1]s", "3"),
				plain(studentView+" WHEN Gender = %[1]s UPDATE(Attendance) = 9 OUTPUT COUNT(POST(Grade) >= 60) FOR PRE(Gender) = %[1]s", "1")),
			howtos: []query{
				{src: participationView + " HOWTOUPDATE Discussion, HandRaised, Announcements TOMAXIMIZE AVG(POST(Grade))"},
				{src: participationView + " HOWTOUPDATE Discussion, HandRaised, Announcements, Assignment LIMIT UPDATES <= 2 TOMAXIMIZE AVG(POST(Grade))"},
			}},
	}
}

func concat(parts ...[]query) []query {
	var out []query
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// drawTemplate draws a template index by weight.
func drawTemplate(rng *rand.Rand, ts []template, total float64) int {
	x := rng.Float64() * total
	for i, t := range ts {
		x -= t.weight
		if x < 0 {
			return i
		}
	}
	return len(ts) - 1
}
