// Command e2ebench is the repository's end-to-end benchmark. It drives
// the real stack in one process over loopback TCP — vehicle encoding
// (vhash), RSU report folding (dsrc, rsu), the wire protocol
// (transport), the WAL-backed central server (central, wal, store), the
// estimators and estimate cache (core) and the cluster plane (cluster,
// cluster/router) — on three seeded workloads, checks every answer, and
// prints its metrics as one JSON object on the last line of standard
// output.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	e2ebench --workload period-upload|cold-query|cluster-dashboard \
//	         --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with the program unwrapped.
// --trace 1 runs the workload twice for S/2 seconds each, unwrapped and
// then with tracing wrappers around the program's public interfaces, and
// reports the per-layer metrics of the traced half plus the tracing
// overhead (traced minus untraced) of every end-to-end metric.
//
// The metric names, units and workload reasons mirror BENCHMARK.json at
// the repository root (a test keeps them in step). A line before the
// result carries the host stamp, sample counts, workload-property
// measurements, the ungated metrics and every check. The exit code is 1
// when any check fails.
//
// Every workload reports every end-to-end metric, because each is a
// period cycle of the paper's system — vehicles report to RSUs, RSUs
// upload at period end, the authority queries — and the workloads differ
// in which part dominates: period-upload the reports and uploads,
// cold-query large cold joins, cluster-dashboard cached reads through the
// router while periods are written and shipped. Latencies and rates are
// medians over chronological chunks of the timed section (see
// robustQuantile), so a burst of host interference moves a chunk rather
// than the result.
//
// Layers are attributed from outside the program (trace.go): the traced
// run wraps the transport.Store and store.Store the stack is assembled
// from and times the generator's own calls. Per-layer metrics of layers
// a workload does not reach read 0.
//
// The benchmark runs on Linux: it paces open-loop requests with a
// timerfd and reads /proc for memory and the CPU model.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricDef is one metric's name and unit.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics every workload reports, each
// gated by a regression bound in BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"upload_p50_ms", "ms"},
	{"upload_records_per_s", "1/s"},
	{"reports_per_s", "1/s"},
	{"point_p50_us", "us"},
	{"p2p_p50_us", "us"},
	{"queries_per_s", "1/s"},
	{"stored_bytes_per_byte", "ratio"},
	{"peak_rss_mb", "MiB"},
}

// ungated lists the tail latencies, printed in the report line but not
// gated. On this class of host (a shared virtual machine) they follow
// the host: the fsync tail of the virtual disk and stalls of the
// virtual CPUs move them by 25-100% between runs minutes apart on the
// same inputs, so no regression bound of at most 25% holds for them on
// every workload.
var ungated = []metricDef{
	{"upload_p99_ms", "ms"},
	{"point_p99_us", "us"},
	{"p2p_p99_us", "us"},
}

// perLayer lists the per-layer metrics of a traced run. The tracing
// overhead of every end-to-end metric follows them as
// trace_overhead.<name>.
var perLayer = []metricDef{
	{"vhash.encode_ns", "ns"},
	{"rsu.report_ns", "ns"},
	{"rsu.fold_ratio", "ratio"},
	{"transport.upload_self_us", "us"},
	{"transport.query_self_us", "us"},
	{"central.ingest_us", "us"},
	{"wal.self_us", "us"},
	{"wal.syncs_per_append", "ratio"},
	{"wal.bytes_per_payload_byte", "ratio"},
	{"store.ingest_us", "us"},
	{"store.collect_us", "us"},
	{"store.blockcache_hit_ratio", "ratio"},
	{"store.blockcache_evictions", "count"},
	{"store.cold_read_share", "ratio"},
	{"core.point_us", "us"},
	{"core.p2p_us", "us"},
	{"core.join_gbps", "GB/s"},
	{"core.estcache_hit_ratio", "ratio"},
	{"core.estcache_invalidations", "count"},
	{"router.upload_self_us", "us"},
	{"router.query_self_us", "us"},
	{"router.cross_partition_share", "ratio"},
	{"cluster.ship_ms", "ms"},
	{"cluster.lag_after_ship", "count"},
	{"gen.late_p99_ms", "ms"},
	{"failed_ratio", "ratio"},
}

// overheadPrefix names the tracing overhead of an end-to-end metric
// (gated or not) among the per-layer metrics.
const overheadPrefix = "trace_overhead."

// runOpts is what every workload run gets.
type runOpts struct {
	seed    uint64
	seconds time.Duration
	dir     string // scratch directory for WALs and stores, on the disk the checkout is on
	setups  int    // set-ups per run; setup_s is their median
}

// check is one correctness or workload-property check.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// outcome is what one run of a workload measured.
type outcome struct {
	e2e       map[string]float64
	layers    map[string]float64 // traced runs only
	attempted int
	failed    int
	samples   map[string]int
	props     map[string]float64
	checks    []check
	spans     []span
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (o *outcome) ok() bool {
	for _, c := range o.checks {
		if !c.OK {
			return false
		}
	}
	return o.failed == 0
}

// workload is one named traffic mix.
type workload struct {
	name string
	why  string
	run  func(o runOpts, tr *tracer) (*outcome, error)
}

var workloads = []workload{
	{
		name: "period-upload",
		why:  "period-end burst: 64 RSUs fold vehicle reports and upload one record each, closed loop, into a WAL-fsynced store; vhash, rsu, transport, wal and store dominate, a small readback aside",
		run:  func(o runOpts, tr *tracer) (*outcome, error) { return runPeriodUpload(o, defaultUpload, tr) },
	},
	{
		name: "cold-query",
		why:  "analyst queries over never-repeating period subsets of 2^18-2^20-bit records on a tiered store: join kernels and cold reads dominate, the estimate cache never hits",
		run:  func(o runOpts, tr *tracer) (*outcome, error) { return runColdQuery(o, defaultCold, tr) },
	},
	{
		name: "cluster-dashboard",
		why:  "dashboard refreshes, open loop, through the router of a 3-node R=2 cluster while every period is uploaded and shipped: estimate-cache hits, router scatter-gather and replication together",
		run:  func(o runOpts, tr *tracer) (*outcome, error) { return runDashboard(o, defaultDashboard, tr) },
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: period-upload, cold-query or cluster-dashboard")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run, plus tracing overhead")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "directory for WALs, stores and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload (period-upload, cold-query, cluster-dashboard), --seconds > 0, --trace 0|1\n")
		return 2
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	dir := filepath.Join(*workdir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	opts := runOpts{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), dir: dir, setups: 3}
	var (
		main   *outcome
		traced *outcome
		err    error
	)
	if *trace == 0 {
		main, err = w.run(opts, nil)
	} else {
		half := opts
		half.seconds /= 2
		half.dir = filepath.Join(dir, "untraced")
		if main, err = w.run(half, nil); err == nil {
			debug.FreeOSMemory()
			half.dir = filepath.Join(dir, "traced")
			traced, err = w.run(half, newTracer())
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}

	res := result{Correct: main.ok(), Attempted: main.attempted, Failed: main.failed, Metrics: map[string]metricValue{}}
	report := map[string]any{
		"workload": w.name,
		"why":      w.why,
		"host":     hostStamp(nproc, *seed, opts, dir),
		"samples":  main.samples,
		"measured": main.props,
		"checks":   main.checks,
		"ungated":  metricValues(main.e2e, ungated),
	}
	if traced == nil {
		res.Metrics = metricValues(main.e2e, endToEnd)
	} else {
		res.Correct = res.Correct && traced.ok()
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{traced.layers[m.name], m.unit}
		}
		for _, m := range append(endToEnd, ungated...) {
			res.Metrics[overheadPrefix+m.name] = metricValue{traced.e2e[m.name] - main.e2e[m.name], m.unit}
		}
		report["traced_checks"] = traced.checks
		report["traced_samples"] = traced.samples
		report["untraced_end_to_end"] = main.e2e
		report["traced_end_to_end"] = traced.e2e
		spanFile := filepath.Join(*workdir, w.name+".spans.csv")
		if err := writeSpans(spanFile, traced.spans); err != nil {
			fmt.Fprintf(stderr, "e2ebench: writing spans: %v\n", err)
			return 1
		}
		report["spans"] = map[string]any{"file": spanFile, "count": len(traced.spans)}
	}
	if err := printJSON(stdout, map[string]any{"report": report}); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	if err := printJSON(stdout, res); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	if !res.Correct {
		for _, c := range append(main.checks, checksOf(traced)...) {
			if !c.OK {
				fmt.Fprintf(stderr, "e2ebench: check %s failed: %s\n", c.Name, c.Detail)
			}
		}
		return 1
	}
	return 0
}

func metricValues(vals map[string]float64, defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, m := range defs {
		out[m.name] = metricValue{vals[m.name], m.unit}
	}
	return out
}

func checksOf(o *outcome) []check {
	if o == nil {
		return nil
	}
	return o.checks
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// hostStamp states the host and configuration a result was measured on.
func hostStamp(nproc int, seed uint64, o runOpts, dir string) map[string]any {
	goamd64 := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				goamd64 = s.Value
			}
		}
	}
	fsType, err := filesystem(dir)
	if err != nil {
		fsType = "unknown: " + err.Error()
	}
	return map[string]any{
		"nproc":        nproc,
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"goamd64":      goamd64,
		"goarch":       runtime.GOARCH,
		"cpu":          cpuModel(),
		"go":           runtime.Version(),
		"wal_fs":       fsType,
		"flush_policy": walOptions.Sync.String(),
		"seed":         seed,
		"seconds":      o.seconds.Seconds(),
		"setups":       o.setups,
	}
}
