package main

import (
	"encoding/json"
	"os"
	"sync"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// tables the program prints in step: same names, same units, same
// order.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
}

// TestCovered checks the interval union behind self times.
func TestCovered(t *testing.T) {
	for _, tc := range []struct {
		spans []span
		want  int64
	}{
		{nil, 0},
		{[]span{{Start: 0, End: 10}}, 10},
		{[]span{{Start: 0, End: 10}, {Start: 5, End: 15}}, 15},
		{[]span{{Start: 20, End: 30}, {Start: 0, End: 10}}, 20},
		{[]span{{Start: 0, End: 30}, {Start: 5, End: 10}}, 30},
	} {
		if got := covered(tc.spans); int64(got) != tc.want {
			t.Errorf("covered(%v) = %d, want %d", tc.spans, got, tc.want)
		}
	}
}

// TestTracerConcurrent records spans from several goroutines at once,
// as search trials and serve handlers do, and checks the tree.
func TestTracerConcurrent(t *testing.T) {
	tr := newTracer()
	root := tr.begin("search", 0, 0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := tr.begin("search.eval", 0, root)
				start := time.Now()
				tr.add("sim", tr.opOf(id), id, start, start)
				tr.end(id)
			}
		}()
	}
	wg.Wait()
	tr.end(root)
	if got := tr.byName()["search.eval"].count; got != 800 {
		t.Fatalf("recorded %d trial spans, want 800", got)
	}
	if problems := tr.check(map[string]bool{"search": true}); len(problems) > 0 {
		t.Fatal(problems)
	}
}
