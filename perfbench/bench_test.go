package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/trace"
)

// tiny shrinks the workloads' inputs for the duration of a test.
func tiny(t *testing.T) {
	saved := sizes
	sizes.companyVolume = 1500
	sizes.liveDays, sizes.surgeDays = 1, 1
	sizes.paperCompanies, sizes.paperDays = 3, 2
	sizes.setupRepeats = 1
	t.Cleanup(func() { sizes = saved })
}

func TestWorkloadChecksPass(t *testing.T) {
	tiny(t)
	for name, drive := range workloads {
		for _, traced := range []bool{false, true} {
			opts := options{seed: 3, seconds: 0.3, traced: traced, workDir: t.TempDir()}
			m, err := drive(opts)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			if m.checkErr != nil {
				t.Errorf("%s (traced %v): output check failed: %v", name, traced, m.checkErr)
			}
			if m.attempted < 1 || m.failed != 0 {
				t.Errorf("%s (traced %v): attempted %d, failed %d", name, traced, m.attempted, m.failed)
			}
			for _, k := range []string{"msgs_s", "p50_ms", "p99_ms", "heap_live_mib"} {
				if v := m.e2e[k].Value; !(v > 0) {
					t.Errorf("%s (traced %v): %s = %v, want > 0", name, traced, k, v)
				}
			}
			if traced {
				for k := range m.layers {
					if _, ok := perLayerUnits[k]; !ok {
						t.Errorf("%s: undeclared per-layer metric %s", name, k)
					}
				}
			}
		}
	}
}

// A send that stalls delays the sends due after it: their latency,
// counted from the due time, carries the wait even though their own
// service is instant.
func TestOpenLoopChargesStallToLaterSends(t *testing.T) {
	const stall = 60 * time.Millisecond
	r := openLoop(1000, 200*time.Millisecond, 1, func(i int64) (time.Time, error) {
		if i == 20 {
			time.Sleep(stall)
		}
		return time.Now(), nil
	})
	if len(r.results) != 200 {
		t.Fatalf("sent %d, want 200", len(r.results))
	}
	next := r.results[21]
	if next.latency < stall/2 || next.late < stall/2 {
		t.Errorf("send after the stall: latency %v, late %v; want both >= %v", next.latency, next.late, stall/2)
	}
	if r.backlogMax() < 10 {
		t.Errorf("backlog max %d, want the stall to queue >= 10 sends", r.backlogMax())
	}
	if first := r.results[5]; first.latency > stall/2 {
		t.Errorf("send before the stall took %v", first.latency)
	}
}

func TestMaxRateInterpolates(t *testing.T) {
	mk := func(rate, ms float64) rung {
		return rung{rate: rate, results: []sendResult{{latency: time.Duration(ms * 1e6)}}}
	}
	ladder := []rung{mk(100, 1), mk(200, 5), mk(300, 125)}
	// log-midpoint of 5 and 125 is 25.
	if got := maxRate(ladder, 25); math.Abs(got-250) > 1e-9 {
		t.Errorf("maxRate = %v, want 250", got)
	}
	if got := maxRate(ladder[:2], 25); got != 200 {
		t.Errorf("maxRate with every rung inside the limit = %v, want the top rate 200", got)
	}
}

func TestAttributeGivesInnermostModule(t *testing.T) {
	stacks := [][]string{
		{"runtime.mallocgc", "repro/internal/core.(*Engine).Receive", "repro/internal/workload.(*Fleet).injectClass"},
		{"repro/internal/workload.(*Fleet).buildMessage", "runtime.goexit"},
		{"repro/internal/dnscache.(*Cache).LookupA", "main.(*tracedResolver).LookupA", "repro/internal/core.(*Engine).Receive"},
		{"main.messageBody", "repro/internal/core.(*Engine).Receive"},
		{"runtime.gcBgMarkWorker"},
	}
	weights := []int64{40, 30, 10, 5, 15}
	got := attribute(stacks, weights)
	want := map[string]float64{
		"core": 0.40, "workload": 0.30, "dnscache": 0.10, "perfbench": 0.05, "runtime": 0.15,
		"product": 0.50, "harness": 0.30,
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-9 {
			t.Errorf("share[%s] = %v, want %v", k, got[k], w)
		}
	}
}

func TestDecodeProfileReadsOwnProfile(t *testing.T) {
	p, err := startProfile()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x += len(messageBody(trace.Record{Subject: "s", From: "a@b.example", Size: 4000}, int64(x)))
	}
	stacks, weights, err := p.stopRaw()
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) == 0 || len(stacks) != len(weights) {
		t.Fatalf("decoded %d stacks, %d weights", len(stacks), len(weights))
	}
	if attribute(stacks, weights)["perfbench"] == 0 {
		t.Errorf("no CPU charged to the benchmark's own busy loop")
	}
}

func TestTraceReproducible(t *testing.T) {
	tiny(t)
	a, err := record(companyConfig(7), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := record(companyConfig(7), 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := record(companyConfig(8), 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(a.raw) != string(b.raw) {
		t.Errorf("seed 7 recorded two different traces (%d vs %d bytes)", len(a.raw), len(b.raw))
	}
	if string(a.raw) == string(c.raw) {
		t.Errorf("seeds 7 and 8 recorded the same trace")
	}
}

// BENCHMARK.json must declare exactly the metrics the benchmark reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the benchmark has %d workloads", names, len(workloads))
	}
	e2e := map[string]string{"msgs_s": "msgs/s", "p50_ms": "ms", "p99_ms": "ms", "heap_live_mib": "MiB", "setup_s": "s"}
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("end_to_end has %d metrics, want %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if e2e[m.Name] != m.Unit {
			t.Errorf("end_to_end %s [%s] is not reported with that unit", m.Name, m.Unit)
		}
	}
	seen := map[string]bool{}
	for _, m := range spec.PerLayer {
		seen[m.Name] = true
		if perLayerUnits[m.Name] != m.Unit {
			t.Errorf("per_layer %s [%s]: reported with unit %q", m.Name, m.Unit, perLayerUnits[m.Name])
		}
	}
	var missing []string
	for k := range perLayerUnits {
		if !seen[k] {
			missing = append(missing, k)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("reported but not in BENCHMARK.json: %v", missing)
	}
}
