package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"blinktree/internal/core"
)

// A window with no operations must report zero for every per-operation
// figure, however much the preload did before it.
func TestZeroOpWindowReportsZero(t *testing.T) {
	tree, err := core.New(core.Options{Workers: core.WorkersNone})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if err := tree.BulkLoad(loadStream(2000), fill); err != nil {
		t.Fatal(err)
	}
	// Preload past the right edge, the traffic the append fast path serves.
	for i := 2000; i < 3000; i++ {
		k := keyBytes(i)
		if err := tree.Put(k, appendValue(nil, k, 1)); err != nil {
			t.Fatal(err)
		}
	}
	tree.DrainTodo()
	w := &window{before: takeSnapshot(tree.Snapshot(), "", false)}
	w.after = takeSnapshot(tree.Snapshot(), "", false)
	if w.after.tree.Stats.AppendFastHits == 0 {
		t.Fatal("preload did not use the append fast path; the test proves nothing")
	}
	for name, v := range w.deltas() {
		// The snapshots themselves allocate; no operation does.
		if v != 0 && name != "mallocs" && name != "alloc_bytes" {
			t.Errorf("counter %s moved by %v in a window with no operations", name, v)
		}
	}
	for name, v := range w.derive() {
		if v != 0 {
			t.Errorf("metric %s = %v in a window with no operations", name, v)
		}
	}
}

func TestCheckerRejectsBadOutput(t *testing.T) {
	k1, k2, k3 := keyBytes(1), keyBytes(2), keyBytes(3)
	v := func(k []byte) []byte { return appendValue(nil, k, 7) }
	noMore := func([]byte) (bool, error) { return false, nil }

	if err := checkValue(k1, v(k1)); err != nil {
		t.Errorf("good value rejected: %v", err)
	}
	if err := checkValue(k1, v(k2)); err == nil {
		t.Error("value naming another key accepted")
	}

	var c scanCheck
	c.reset(k1)
	c.add(k1, v(k1))
	c.add(k2, v(k2))
	c.add(k3, v(k3))
	if err := c.finish(noMore); err != nil {
		t.Errorf("good short scan at the end of the key space rejected: %v", err)
	}

	c.reset(k1)
	c.add(k1, v(k1))
	c.add(k3, v(k3))
	c.add(k2, v(k2))
	if err := c.finish(noMore); err == nil {
		t.Error("misordered scan accepted")
	}

	c.reset(k2)
	c.add(k1, v(k1))
	if err := c.finish(noMore); err == nil {
		t.Error("scan returning a key below its start accepted")
	}

	c.reset(k1)
	c.add(k1, v(k2))
	if err := c.finish(noMore); err == nil {
		t.Error("scan returning a wrong-key value accepted")
	}

	c.reset(k1)
	c.add(k1, v(k1))
	if err := c.finish(func([]byte) (bool, error) { return true, nil }); err == nil {
		t.Error("short scan that stopped before the end of the key space accepted")
	}
}

func TestSameSeedSameStream(t *testing.T) {
	const n = 20000
	for i := range specs {
		sp := &specs[i]
		a := streamHash(newStream(sp, sp.mix, deriveSeed(42, 0), 0), n)
		b := streamHash(newStream(sp, sp.mix, deriveSeed(42, 0), 0), n)
		if a != b {
			t.Errorf("%s: same seed gave different streams", sp.name)
		}
		if c := streamHash(newStream(sp, sp.mix, deriveSeed(43, 0), 0), n); c == a {
			t.Errorf("%s: different seeds gave the same stream", sp.name)
		}
		if c := streamHash(newStream(sp, sp.mix, deriveSeed(42, 1), 1), n); c == a {
			t.Errorf("%s: two clients share one stream", sp.name)
		}
	}
}

// BENCHMARK.json and the program must declare the same workloads and
// metrics.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w, specs[i].name)
		}
	}
	if len(b.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(e2eMetrics))
	}
	for i, m := range b.EndToEnd {
		if want := e2eMetrics[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %v, program %v", i, m, want)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range b.PerLayer {
		if want := layerMetrics[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %v, program %v", i, m, want)
		}
	}
}

// Each workload, shrunk, runs end to end in both modes, passes its checks
// and reports every metric.
func TestSmallRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for i := range specs {
		sp := specs[i]
		sp.keys, sp.warmup = 20000, 200
		for _, trace := range []bool{false, true} {
			cfg := config{workload: sp.name, seed: 1, seconds: 1, trace: trace, root: t.TempDir()}
			var out strings.Builder
			res, err := run(cfg, &sp, &out)
			if err != nil || res == nil || !res.Correct {
				t.Fatalf("%s trace=%v: %v\n%s", sp.name, trace, err, out.String())
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", sp.name, trace, res.Failed, res.Attempted)
			}
			want := len(e2eMetrics)
			if trace {
				want = len(layerMetrics)
			}
			if len(res.Metrics) != want {
				t.Errorf("%s trace=%v: %d metrics, want %d", sp.name, trace, len(res.Metrics), want)
			}
			if !trace {
				for _, m := range e2eMetrics {
					if res.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: %s = %v, want a positive value", sp.name, m.name, res.Metrics[m.name].Value)
					}
				}
			}
		}
	}
}
