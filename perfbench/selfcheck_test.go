package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-check compares
// against what the program prints.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestSelfCheck runs every workload briefly, untraced and traced, and checks
// that each metric BENCHMARK.json names is printed with its unit, that
// nothing failed, and that failed_frac is printed as 0.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	checkCatalogue(t, spec)
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			code, err := execute(&out, wl.Name, 1, 2, trace, t.TempDir())
			if err != nil || code != 0 {
				t.Fatalf("%s trace=%v: exit %d, %v\n%s", wl.Name, trace, code, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", wl.Name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", wl.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := spec.PerLayer
			if !trace {
				want = spec.EndToEnd
				if v, ok := printed(lines, wl.Name, "failed_frac", "frac"); !ok || v != 0 {
					t.Errorf("%s: failed_frac printed %v (found %v), want 0", wl.Name, v, ok)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics in the result, want %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", wl.Name, trace, m.Name, got, ok, m.Unit)
				}
				if _, ok := printed(lines, wl.Name, m.Name, m.Unit); !ok {
					t.Errorf("%s trace=%v: metric %s not printed with unit %s", wl.Name, trace, m.Name, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// checkCatalogue pins BENCHMARK.json to the program's own metric lists.
func checkCatalogue(t *testing.T, spec benchmarkSpec) {
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if i < len(endToEnd) && m.Name != endToEnd[i].name || i < len(endToEnd) && m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s/%s, program has %+v", i, m.Name, m.Unit, endToEnd[i])
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if i < len(perLayer) && (m.Name != perLayer[i].name || m.Unit != perLayer[i].unit) {
			t.Errorf("per_layer[%d] = %s/%s, program has %+v", i, m.Name, m.Unit, perLayer[i])
		}
	}
	for _, wl := range spec.Workloads {
		if workloads[wl.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is unknown to the program", wl.Name)
		}
	}
}

// printed finds the human-readable line "<workload> <name> <value> <unit>".
func printed(lines []string, workload, name, unit string) (float64, bool) {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) >= 4 && f[0] == workload && f[1] == name && f[3] == unit {
			v, err := strconv.ParseFloat(f[2], 64)
			return v, err == nil
		}
	}
	return 0, false
}
