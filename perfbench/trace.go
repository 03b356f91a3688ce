package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hyper/internal/obs"
)

// span is one benchmark-side span. Client spans wrap a request; their
// children are the server overhead, the engine stages grafted from the
// response's ?trace=1 tree, and the module calls the benchmark replays.
type span struct {
	Name     string  `json:"name"`
	TraceID  string  `json:"trace_id,omitempty"`
	StartUs  int64   `json:"start_unix_us"`
	DurMs    float64 `json:"dur_ms"`
	Children []*span `json:"children,omitempty"`
}

// layers accumulates the per-layer figures of a traced run. Every timing
// is taken in the benchmark's own code: around the HTTP call, around a
// replayed call into a module's public function, or read from the stage
// spans the server already returns.
type layers struct {
	mu      sync.Mutex
	sum     map[string]float64
	n       map[string]int
	spans   []*span
	replays map[string]int // distinct replay input -> times replayed
	pending []func()       // module replays, run after the timed phase

	// Per-query decomposition checks (see addWhatIf).
	decomposed int
	badSplit   int
}

func newLayers() *layers {
	return &layers{sum: make(map[string]float64), n: make(map[string]int), replays: make(map[string]int)}
}

// add records one observation of a per-layer figure.
func (l *layers) add(name string, v float64) {
	l.mu.Lock()
	l.sum[name] += v
	l.n[name]++
	l.mu.Unlock()
}

// mean is the average observation, 0 when the layer saw none.
func (l *layers) mean(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n[name] == 0 {
		return 0
	}
	return l.sum[name] / float64(l.n[name])
}

// replay reports whether the module calls for this distinct input should be
// replayed again: each distinct input is replayed at most twice, so a warm
// mix does not spend its run re-running identical module work.
func (l *layers) replay(key string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.replays[key]++
	return l.replays[key] <= 2
}

// later queues a module replay. Replays run after the timed phase, one at a
// time, so they neither contend with the served requests nor with each
// other.
func (l *layers) later(fn func()) {
	l.mu.Lock()
	l.pending = append(l.pending, fn)
	l.mu.Unlock()
}

func (l *layers) runPending() {
	for _, fn := range l.pending {
		fn()
	}
	l.pending = nil
}

// timed runs fn as a child span of parent and records its duration under
// name (in ms, or µs when us is set).
func (l *layers) timed(parent *span, name string, us bool, fn func()) {
	start := time.Now()
	fn()
	d := time.Since(start)
	v := ms(d)
	if us {
		v = float64(d) / float64(time.Microsecond)
	}
	l.add(name, v)
	parent.Children = append(parent.Children, &span{Name: name, StartUs: start.UnixMicro(), DurMs: ms(d)})
}

// clientSpan opens the benchmark's span for one request.
func clientSpan(name string, start time.Time, lat time.Duration) *span {
	return &span{Name: name, StartUs: start.UnixMicro(), DurMs: ms(lat)}
}

func (l *layers) keep(s *span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// engineStages are the stage spans the engine emits under a what-if's
// trace root; fit spans nested in eval_shards (lazily trained models) are
// moved from eval to train.
var engineStages = []string{"view", "blocks", "plan", "train", "eval", "fold"}

// addWhatIf grafts a traced what-if response under the client span cs and
// records its decomposition: client latency = server overhead + total_ms,
// and total_ms = engine stages + unattributed.
func (l *layers) addWhatIf(cs *span, traceJSON *obs.TraceJSON, totalMs float64) {
	stage := map[string]float64{}
	compileMs, compiled := 0.0, false
	if traceJSON != nil && traceJSON.Root != nil {
		var walk func(sp *obs.SpanJSON, inEval bool)
		walk = func(sp *obs.SpanJSON, inEval bool) {
			switch sp.Name {
			case "view", "blocks", "train", "fold":
				stage[sp.Name] += sp.DurMs
			case "plan":
				stage["plan"] += sp.DurMs
				if hit, _ := sp.Attrs["cache_hit"].(bool); !hit {
					compileMs += sp.DurMs
					compiled = true
				}
			case "eval_shards":
				stage["eval"] += sp.DurMs
				inEval = true
			case "fit":
				if inEval {
					stage["eval"] -= sp.DurMs
					stage["train"] += sp.DurMs
				}
				return
			}
			for _, c := range sp.Children {
				walk(c, inEval)
			}
		}
		walk(traceJSON.Root, false)
		cs.TraceID = traceJSON.ID
	}
	overhead := cs.DurMs - totalMs
	engine := &span{Name: "engine", StartUs: cs.StartUs, DurMs: totalMs}
	attributed := 0.0
	for _, name := range engineStages {
		attributed += stage[name]
		l.add("engine."+name+"_ms", stage[name])
		engine.Children = append(engine.Children, &span{Name: name, DurMs: stage[name]})
	}
	unattributed := totalMs - attributed
	l.add("engine.unattributed_ms", unattributed)
	engine.Children = append(engine.Children, &span{Name: "unattributed", DurMs: unattributed})
	l.add("server.overhead_ms", overhead)
	cs.Children = append(cs.Children, &span{Name: "server_overhead", DurMs: overhead}, engine)
	if compiled {
		l.add("plan.compile_ms", compileMs)
	}
	l.mu.Lock()
	l.decomposed++
	// The stages are nested inside the engine's total and the total inside
	// the client's latency; a negative remainder means the spans disagree.
	if overhead < 0 || unattributed < -0.01 {
		l.badSplit++
	}
	l.mu.Unlock()
}

// writeSpans dumps every kept span tree to dir as JSON.
func (l *layers) writeSpans(dir, workload string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	l.mu.Lock()
	data, err := json.Marshal(l.spans)
	l.mu.Unlock()
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s.json", workload))
	return os.WriteFile(path, data, 0o644)
}
