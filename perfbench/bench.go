package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// Operation kinds; each has its own latency series.
const (
	opWhatIf = "whatif"
	opHowTo  = "howto"
	opCreate = "create"
	opAppend = "append"
	opAsOf   = "asof"
	opDelete = "delete"
)

// recorder collects per-operation latencies and failures of the timed
// phase. A failure is a non-200 response or an answer the oracle rejects.
type recorder struct {
	mu        sync.Mutex
	lat       map[string][]float64 // op kind -> latencies in ms
	attempted int
	failed    int
	reasons   []string
}

func newRecorder() *recorder { return &recorder{lat: make(map[string][]float64)} }

// op records one attempted operation; it reports whether it succeeded.
func (r *recorder) op(kind string, lat time.Duration, err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failLocked(fmt.Sprintf("%s: %v", kind, err))
		return false
	}
	r.lat[kind] = append(r.lat[kind], ms(lat))
	return true
}

// wrong marks an already-recorded operation as failed: its answer was
// wrong, which the oracle finds only after the timed phase.
func (r *recorder) wrong(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failLocked(fmt.Sprintf(format, args...))
}

func (r *recorder) failLocked(reason string) {
	r.failed++
	if len(r.reasons) < 8 {
		r.reasons = append(r.reasons, reason)
	}
}

func (r *recorder) count(kind string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.lat[kind])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the 0.5 quantile (mean of the middle pair for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile with at least ten samples beyond it:
// with n samples that is the order statistic at rank n-10, reported as the
// percentile 100*(n-10)/n. ok is false below eleven samples.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - 10 // samples at or below the reported value
	return s[k-1], 100 * float64(k) / float64(n), true
}

// metric is one printed figure.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // printed beside the value only, e.g. which percentile
}

// report is one workload run's outcome.
type report struct {
	workload  string
	metrics   []metric
	attempted int
	failed    int
	reasons   []string
	guards    []string // design-guard violations; each also fails the run
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit})
}

func (r *report) addNote(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, note: note})
}

// addLatency adds <prefix>_p50_ms and, when the sample supports one,
// <prefix>_tail_ms.
func (r *report) addLatency(prefix string, xs []float64, withTail bool) {
	if len(xs) == 0 {
		return
	}
	r.addNote(prefix+"_p50_ms", median(xs), "ms", fmt.Sprintf("%d samples", len(xs)))
	if !withTail {
		return
	}
	if v, pct, ok := tail(xs); ok {
		r.addNote(prefix+"_tail_ms", v, "ms", fmt.Sprintf("p%.2f of %d samples", pct, len(xs)))
	}
}

func (r *report) guard(format string, args ...any) {
	r.guards = append(r.guards, fmt.Sprintf(format, args...))
}

// heapLiveMB forces a collection and returns the live heap.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// rtSample is a reading of the runtime counters behind runtime.allocs_per_op
// and runtime.gc_cpu_frac.
type rtSample struct {
	mallocs    uint64
	gcCPU, cpu float64
}

var rtNames = []string{"/gc/heap/allocs:objects", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{mallocs: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), cpu: s[2].Value.Float64()}
}

// spinSink keeps the calibration loops from being optimized away.
var spinSink uint64

// spinParallelism calibrates effective parallelism: the same fixed spin
// work runs on one goroutine and then on GOMAXPROCS goroutines at once;
// the ratio of throughputs is how many cores the process really gets. Each
// side is timed three times (alternating) and its fastest time is used.
func spinParallelism() float64 {
	const iters = 40_000_000
	spin := func() uint64 {
		x := uint64(1)
		for i := 0; i < iters; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		return x
	}
	p := runtime.GOMAXPROCS(0)
	out := make([]uint64, p)
	one, all := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		spinSink += spin()
		one = min(one, time.Since(start))
		var wg sync.WaitGroup
		start = time.Now()
		for i := range out {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[i] = spin()
			}()
		}
		wg.Wait()
		all = min(all, time.Since(start))
		for _, v := range out {
			spinSink += v
		}
	}
	return float64(p) * one.Seconds() / all.Seconds()
}

// allocBytes is the cumulative heap allocation of the process.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
