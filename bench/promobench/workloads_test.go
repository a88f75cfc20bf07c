package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// repoRoot is the module the benchmark builds promod from.
const repoRoot = "../.."

type metricSpec struct{ Name, Unit string }

// readSpec loads the metric lists of BENCHMARK.json.
func readSpec(t *testing.T) (endToEnd, perLayer []metricSpec) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

// checkReport requires a correct run with no failed operation that
// reports every listed metric in its unit.
func checkReport(t *testing.T, rep *report, want []metricSpec) {
	t.Helper()
	if rep.attempted < 1 || rep.failed != 0 || !rep.correct() {
		t.Errorf("attempted %d, failed %d, correct %t; errors %v", rep.attempted, rep.failed, rep.correct(), rep.errs)
	}
	for _, m := range want {
		got, ok := rep.metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("metric %s: got %+v (present %t), want unit %s", m.Name, got, ok, m.Unit)
		}
	}
	if len(rep.metrics) != len(want) {
		t.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(rep.metrics), len(want))
	}
}

// TestWorkloadsAtToyScale runs every workload end to end on small hosts
// with one-second phases, side by side: each serving workload has a
// daemon of its own.
func TestWorkloadsAtToyScale(t *testing.T) {
	endToEnd, _ := readSpec(t)
	dir := t.TempDir()
	bin, err := buildPromod(repoRoot, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			p, err := newPlan(w, 1, 1, connections(), true)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := runWorkload(p, dir, bin, false)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, endToEnd)
		})
	}
}

// TestTracedAtToyScale runs every workload's traced run, with a short
// loopback window, and checks its per-layer metrics; runTraced itself
// rejects a trace that does not validate. The runs share the process's
// span recorder, so they run one after another.
func TestTracedAtToyScale(t *testing.T) {
	_, perLayer := readSpec(t)
	dir := t.TempDir()
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			p, err := newPlan(w, 1, 0.25, connections(), true)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := runWorkload(p, dir, "", true)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, perLayer)
		})
	}
}
