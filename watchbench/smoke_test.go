package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// manifest is the part of BENCHMARK.json the smoke test holds the program
// to: which workloads are gated and which metrics each mode prints.
type manifest struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSmokeEveryWorkload runs every workload briefly, untraced and traced,
// and checks that every metric BENCHMARK.json names is printed with its
// unit, nothing else is, and no session failed.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	m := readManifest(t)
	gated := map[string]bool{}
	for _, w := range m.Workloads {
		gated[w.Name] = true
	}
	for _, w := range workloads {
		delete(gated, w.name)
	}
	if len(gated) > 0 {
		t.Fatalf("BENCHMARK.json names workloads the program lacks: %v", gated)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			list := m.EndToEnd
			if trace {
				list = m.PerLayer
			}
			for _, e := range list {
				want[e.Name] = e.Unit
			}
			res, err := benchmark(config{
				workload: w.name, seed: 1, seconds: 2.5, trace: trace,
				dir: t.TempDir(), tail: 0,
				info: func(string, ...any) {},
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d of %d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			var extra []string
			for name, got := range res.Metrics {
				if unit, ok := want[name]; !ok {
					extra = append(extra, name)
				} else if got.Unit != unit {
					t.Errorf("%s: %s in %q, BENCHMARK.json says %q", w.name, name, got.Unit, unit)
				}
			}
			sort.Strings(extra)
			if len(extra) > 0 {
				t.Errorf("%s trace=%v: metrics missing from BENCHMARK.json: %v", w.name, trace, extra)
			}
			for name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: %s not printed", w.name, trace, name)
				}
			}
			if trace && res.Metrics["fail_ratio"].Value != 0 {
				t.Errorf("%s: fail_ratio %v", w.name, res.Metrics["fail_ratio"].Value)
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "zipf-local", "-trace", "2"},
		{"-workload", "zipf-local", "-seconds", "0"},
		{"-workload", "no-such", "-dir", t.TempDir()},
		{"-no-such-flag"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code == 0 || out.Len() != 0 {
			t.Errorf("run %v: exit %d, printed %q", args, code, out.String())
		}
	}
}
