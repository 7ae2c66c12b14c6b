package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// namePattern is what a metric or workload name may contain.
var namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// unitPattern is what a metric unit may contain.
var unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNamePattern(t *testing.T) {
	for _, ok := range []string{"setup_s", "live.prep_p50_us", "nvmetcp.zero_copy_share", "cold-ckpt", "9lives"} {
		if !namePattern.MatchString(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", ".hidden", "_x", "has space", "slash/name", "p99%", "é", string(make([]byte, 65))} {
		if namePattern.MatchString(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	for _, ok := range []string{"s", "us", "1/s", "GiB/s", "count/epoch", "%"} {
		if !unitPattern.MatchString(ok) {
			t.Errorf("unit %q rejected", ok)
		}
	}
}

// benchmarkFile mirrors the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestCatalogMatchesBenchmarkFile keeps BENCHMARK.json and the metrics
// the program reports in step: same names, units and directions, all
// valid, each used once, and every per-layer metric mapped to what it
// should move.
func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	use := func(name string) {
		if !namePattern.MatchString(name) {
			t.Errorf("name %q does not match %v", name, namePattern)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	if len(bf.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEndDefs))
	}
	for i, m := range bf.EndToEnd {
		use(m.Name)
		d := endToEndDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if !unitPattern.MatchString(m.Unit) {
			t.Errorf("%s unit %q invalid", m.Name, m.Unit)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		use(m.Name)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
		if !unitPattern.MatchString(m.Unit) {
			t.Errorf("%s unit %q invalid", m.Name, m.Unit)
		}
		if moves[m.Name] == "" {
			t.Errorf("%s has no entry in moves", m.Name)
		}
	}
	if len(moves) != len(perLayer) {
		t.Errorf("moves has %d entries for %d per-layer metrics", len(moves), len(perLayer))
	}
	for _, w := range bf.Workloads {
		use(w.Name)
		if _, _, err := run(options{workload: w.Name + "-no-such"}); err == nil {
			t.Errorf("unknown workload accepted")
		}
	}
	if len(bf.Workloads) != 3 {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs 3", len(bf.Workloads))
	}
}
