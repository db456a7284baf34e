// Command perfbench is the repository benchmark. It drives the PPEP
// system through the public functions of its packages on one of three
// workloads, checks that the outputs are correct, and prints one JSON
// result line:
//
//	bash perfbench/run.sh --workload fleet-mixed --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with
// --trace 1 the benchmark records spans around its calls into each
// layer and the result holds the per-layer metrics instead. The
// metric names and their bounds live in BENCHMARK.json at the
// repository root; TestMetricLists keeps the two in step.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics every untraced run reports,
// with their units. Each workload defines them for its own operations
// (see BENCHMARK.json and the workload files).
var endToEnd = map[string]string{
	"setup_s":        "s",
	"max_rss_mb":     "MB",
	"ops_per_s":      "1/s",
	"produce_p50_ms": "ms",
	"produce_p90_ms": "ms",
	"answer_p50_ms":  "ms",
	"answer_p90_ms":  "ms",
	"pred_err_pct":   "%",
}

// perLayer lists the per-layer metrics every traced run reports. A
// layer a workload does not exercise reads 0 on that workload.
var perLayer = map[string]string{
	"fleet.advance_ms":          "ms",
	"fleet.parallel_efficiency": "ratio",
	"fleet.slim_models_s":       "s",
	"fxsim.tickn_us":            "us",
	"fxsim.read_interval_us":    "us",
	"trace.fold_us":             "us",
	"fxsim.fast_tick_share":     "ratio",
	"core.analyze_into_us":      "us",
	"core.prediction_table_us":  "us",
	"core.train_ms":             "ms",
	"daemon.interval_self_us":   "us",
	"daemon.skipped_intervals":  "count",
	"daemon.msr_retries":        "count",
	"daemon.interval_p99_us":    "us",
	"serve.observe_us":          "us",
	"serve.handler_us.predict":  "us",
	"serve.handler_us.batch":    "us",
	"serve.handler_us.metrics":  "us",
	"serve.failed_requests":     "count",
	"serve.req_p99_us":          "us",
	"serve.req_p50_us.predict":  "us",
	"serve.req_p50_us.batch":    "us",
	"serve.req_charged_p50_us":  "us",
	"serve.req_charged_p90_us":  "us",
	"gen.late_p99_us":           "us",
	"gen.achieved_rps":          "1/s",
	"gen.queued_share":          "ratio",
	"simcache.hits":             "count",
	"simcache.misses":           "count",
	"simcache.hit_rate":         "ratio",
	"simcache.bytes_read":       "bytes",
	"simcache.bytes_written":    "bytes",
	"simcache.corrupt":          "count",
	"tracecodec.decode_ms":      "ms",
	"tracecodec.encode_ms":      "ms",
	"trace.overhead_pct":        "%",
	"host.steal_pct":            "%",
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(*run) error{
	"fleet-mixed":    runFleet,
	"ppepd-serve":    runServe,
	"campaign-cache": runCampaign,
}

// maxFailureNotes caps the failure messages a run keeps for stderr.
const maxFailureNotes = 20

// run is the state of one benchmark invocation: its inputs, the
// operation accounting, the metrics measured so far and, on a traced
// run, the span recorder.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	// tr is nil on an untraced run.
	tr *tracer
	// nproc bounds every worker pool and connection count.
	nproc int
	// dir is where the run may write (span dumps, temporary caches).
	dir string
	// steal is the host's steal counter at the start of the run.
	steal stealClock

	attempted, failed int64
	notes             []string
	metrics           map[string]metric
}

// op counts one attempted operation and, when err is non-nil, one
// failed one.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.note(err)
	}
}

// note records a failure message without counting an operation.
func (r *run) note(err error) {
	if len(r.notes) < maxFailureNotes {
		r.notes = append(r.notes, err.Error())
	}
}

// set records a metric; the unit comes from the run's metric list.
func (r *run) set(name string, v float64) {
	unit, ok := endToEnd[name]
	if r.tr != nil {
		unit, ok = perLayer[name]
	}
	if ok {
		r.metrics[name] = metric{Value: v, Unit: unit}
	}
}

// want reports which metric list the run fills.
func (r *run) want() map[string]string {
	if r.tr != nil {
		return perLayer
	}
	return endToEnd
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// host is the environment record printed before the result.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	Commit     string `json:"commit"`
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "measurement time per run")
		traced  = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	)
	flag.Parse()
	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds ≥ 1, --trace 0|1\n", strings.Join(sortedKeys(workloads), ", "))
		return 2
	}
	dir := os.Getenv("PERFBENCH_OUT")
	if dir == "" {
		dir = filepath.Join(".bench_build", "perfbench")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r := &run{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		nproc:    runtime.NumCPU(),
		dir:      dir,
		metrics:  map[string]metric{},
	}
	if *traced == 1 {
		r.tr = newTracer()
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	h := host{
		CPU: cpuModel(), NumCPU: r.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Workload: *name, Seed: *seed,
		Seconds: *seconds, Trace: *traced, Commit: commit,
	}
	hb, _ := json.Marshal(map[string]host{"host": h}) // plain struct of strings and ints
	fmt.Println(string(hb))

	r.steal = startSteal()
	err := drive(r)
	if err != nil {
		// A workload that cannot run at all prints no result.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	stealPct := 100 * r.steal.share(r.nproc)
	fmt.Printf("host steal %.2f%% of CPU time\n", stealPct)
	if r.tr == nil {
		r.set("max_rss_mb", maxRSSMB())
	} else {
		r.set("host.steal_pct", stealPct)
		path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		if err := r.tr.dump(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		r.tr.summary(os.Stdout)
	}
	for _, m := range sortedKeys(r.want()) {
		if _, ok := r.metrics[m]; ok {
			continue
		}
		r.metrics[m] = metric{Unit: r.want()[m]} // a layer the workload does not exercise
		if r.tr == nil {
			r.op(fmt.Errorf("end-to-end metric %s was not measured", m))
		}
	}
	for _, n := range r.notes {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", n)
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
	for _, m := range sortedKeys(r.metrics) {
		fmt.Printf("%-28s %14.6g %s\n", m, r.metrics[m].Value, r.metrics[m].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err) // a NaN metric
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
