package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// Minimal sizes of each workload: every phase, wrapper and check runs,
// in well under a second each.
var (
	smallUpload = uploadParams{
		sites: 4, minVol: 100, maxVol: 400, persistent: 0.15, pool: 1 << 10,
		readback: 4, maxT: 8, warmup: 2, periodRate: 20, maxReadback: 1,
	}
	smallCold = coldParams{
		periods: 20, log2m: []int{12, 12, 11, 10}, persistent: 0.05,
		pointT: [2]int{2, 6}, p2pT: [2]int{2, 4}, resident: 0.25, cache: 0.5, maxHit: 0.01,
	}
	smallDashboard = dashParams{
		nodes: 3, replicas: 2, sites: 6, minVol: 200, maxVol: 800, persistent: 0.15,
		preload: 8, warmQueries: 20, rate: 400, burst: 4, ticks: 4,
		pointShare: 0.7, windows: []int{4, 8}, zipf: 1.1, crossShare: 0.5,
		hitRange: [2]float64{0, 1}, crossRange: [2]float64{0, 1},
	}
)

func TestWorkloadsSmall(t *testing.T) {
	cases := []struct {
		name string
		run  func(runOpts, *tracer) (*outcome, error)
	}{
		{"period-upload", func(o runOpts, tr *tracer) (*outcome, error) { return runPeriodUpload(o, smallUpload, tr) }},
		{"cold-query", func(o runOpts, tr *tracer) (*outcome, error) { return runColdQuery(o, smallCold, tr) }},
		{"cluster-dashboard", func(o runOpts, tr *tracer) (*outcome, error) { return runDashboard(o, smallDashboard, tr) }},
	}
	for _, c := range cases {
		for _, traced := range []bool{false, true} {
			name := c.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				var tr *tracer
				if traced {
					tr = newTracer()
				}
				o := runOpts{seed: 7, seconds: 400 * time.Millisecond, dir: t.TempDir(), setups: 2}
				out, err := c.run(o, tr)
				if err != nil {
					t.Fatal(err)
				}
				for _, ch := range out.checks {
					if !ch.OK {
						t.Errorf("check %s: %s", ch.Name, ch.Detail)
					}
				}
				if out.failed != 0 || out.attempted == 0 {
					t.Errorf("attempted %d, failed %d", out.attempted, out.failed)
				}
				for _, m := range append(endToEnd, ungated...) {
					if v, ok := out.e2e[m.name]; !ok || !(v > 0) {
						t.Errorf("end-to-end %s = %v, want > 0", m.name, v)
					}
				}
				if !traced {
					return
				}
				if len(out.spans) == 0 {
					t.Fatal("traced run recorded no spans")
				}
				for _, m := range perLayer {
					if v, ok := out.layers[m.name]; !ok || math.IsNaN(v) {
						t.Errorf("per-layer %s = %v, missing", m.name, v)
					}
				}
				for _, m := range []string{"vhash.encode_ns", "rsu.report_ns", "central.ingest_us", "wal.self_us", "store.ingest_us", "store.collect_us", "transport.upload_self_us"} {
					if !(out.layers[m] > 0) {
						t.Errorf("per-layer %s = %v, want > 0", m, out.layers[m])
					}
				}
			})
		}
	}
}

// TestSelfTime pins the self-time arithmetic on a fixed set of spans.
func TestSelfTime(t *testing.T) {
	spans := []span{
		// Two linked ingests: 100ns and 60ns, with store children of 30ns
		// and 10ns.
		{Kind: kIngest, Parent: -1, Start: 0, End: 100},
		{Kind: kStoreIngest, Parent: 0, Start: 20, End: 50},
		{Kind: kIngest, Parent: -1, Start: 200, End: 260},
		{Kind: kStoreIngest, Parent: 2, Start: 210, End: 220},
		// A replication ingest with no parent: not a child of central.
		{Kind: kStoreIngest, Parent: -1, Start: 300, End: 340},
		// Two client uploads across the wire, 150ns and 90ns.
		{Kind: kClientUpload, Parent: -1, Start: -10, End: 140},
		{Kind: kClientUpload, Parent: -1, Start: 190, End: 280},
		// A span still open when recording stopped is ignored.
		{Kind: kIngest, Parent: -1, Start: 400, End: 0},
		// Encode blocks: 1000ns over 100 vehicles, 500ns over 100.
		{Kind: kEncode, N: 100, Parent: -1, Start: 0, End: 1000},
		{Kind: kEncode, N: 100, Parent: -1, Start: 0, End: 500},
	}
	tot := totals(spans)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"central ingest mean", tot.mean(kIngest), 80},
		{"store ingest under central", tot.childMean(kIngest, kStoreIngest), 20},
		{"wal self", tot.selfLinked(kIngest, kStoreIngest), (160.0 - 40) / 2},
		{"transport upload self", tot.selfByKind([]kind{kClientUpload}, []kind{kIngest}), (240.0 - 160) / 2},
		{"encode per vehicle", tot.perWork(kEncode), 7.5},
		{"absent kind", tot.mean(kShip), 0},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestRobustStatistics(t *testing.T) {
	// 5000 samples of 1..10 cycling, with one burst of 100s inside the
	// fourth chunk: the chunked median ignores the burst.
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = float64(i%10 + 1)
	}
	for i := 3100; i < 3200; i++ {
		xs[i] = 100
	}
	if got := robustQuantile(xs, 0.99, 1000); got != 10 {
		t.Errorf("robust p99 = %v, want 10", got)
	}
	if got := quantile(append([]float64(nil), xs...), 0.99); got != 100 {
		t.Errorf("plain p99 = %v, want 100", got)
	}
	ps := []phase{{10, time.Second}, {10, time.Second}, {1, time.Second}}
	if got := robustRate(ps); got != 10 {
		t.Errorf("robust rate = %v, want 10", got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the metrics and workloads this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	want := append([]metricDef(nil), perLayer...)
	for _, m := range append(endToEnd, ungated...) {
		want = append(want, metricDef{overheadPrefix + m.name, m.unit})
	}
	if len(doc.PerLayer) != len(want) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(doc.PerLayer), len(want))
	}
	for i, m := range doc.PerLayer {
		if m.Name != want[i].name || m.Unit != want[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, want[i].name, want[i].unit)
		}
	}
}

// TestRunOutput drives the command line on the smallest real run and
// checks the shape of its last line.
func TestRunOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "period-upload", "--seed", "3", "--seconds", "0.3", "--trace", "1", "--workdir", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
		t.Errorf("result %+v", res)
	}
	if want := len(perLayer) + len(endToEnd) + len(ungated); len(res.Metrics) != want {
		t.Errorf("traced run printed %d metrics, want %d", len(res.Metrics), want)
	}
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
}
