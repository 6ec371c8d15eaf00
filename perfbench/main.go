// Command perfbench is the repository benchmark: it boots real
// detmt-server (and detmt-gateway) processes over loopback, drives one
// named workload open loop from this single generator process, checks
// that every replica group converged to identical ConsistencyHashes, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) as the last stdout line in JSON. See README.md.
//
//	perfbench -bin DIR -work DIR --workload seq-hot --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json the driver reports against: the
// end-to-end metrics every untraced run prints and the per-layer metrics
// every traced run prints.
var spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, &spec)
}

// opts are the command-line settings of one run.
type opts struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	bin      string
	work     string
}

// report collects a run's metrics and verdicts.
type report struct {
	vals    map[string]float64
	units   map[string]string
	notes   []string
	invalid []string // steady-state or validity gates that failed
	out     outcome  // the measured window
}

func newReport() *report {
	return &report{vals: map[string]float64{}, units: map[string]string{}}
}

func (r *report) set(name, unit string, v float64) {
	r.vals[name] = v
	r.units[name] = unit
}

func (r *report) note(format string, args ...interface{}) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) fail(format string, args ...interface{}) {
	r.invalid = append(r.invalid, fmt.Sprintf(format, args...))
}

type workloadFunc func(o opts, r *report) error

var workloads = map[string]workloadFunc{
	"seq-hot":    func(o opts, r *report) error { return runGroup(o, r, seqHot) },
	"seq-flat":   func(o opts, r *report) error { return runGroup(o, r, seqFlat) },
	"paper-fig1": func(o opts, r *report) error { return runGroup(o, r, paperFig1) },
	"failover":   func(o opts, r *report) error { return runGroup(o, r, failoverLoad) },
	"kv-http":    runKVHTTP,
}

func main() {
	var o opts
	flag.StringVar(&o.workload, "workload", "", "workload name (seq-hot, seq-flat, paper-fig1, kv-http, failover)")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed: the same seed yields the same request stream")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.StringVar(&o.bin, "bin", "", "directory holding detmt-server and detmt-gateway")
	flag.StringVar(&o.work, "work", "", "scratch directory for server data, logs and span files")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition naming the reported metrics")
	flag.Parse()
	o.trace = *trace == 1
	fn, ok := workloads[o.workload]
	if !ok || o.bin == "" || o.work == "" || o.seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need -bin, -work, -seconds >= 1 and -workload in %v\n", workloadNames())
		os.Exit(2)
	}
	if err := loadSpec(*specPath); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	dir := filepath.Join(o.work, fmt.Sprintf("%s-%d-%d", o.workload, o.seed, *trace))
	os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o.work = dir
	r := newReport()
	if err := fn(o, r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	emit(o, r)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// emit prints the human-readable report and then the result line.
func emit(o opts, r *report) {
	names := make([]string, 0, len(r.vals))
	for n := range r.vals {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d trace %v\n", o.workload, o.seed, o.trace)
	for _, n := range names {
		fmt.Printf("  %-34s %14.4f %s\n", n, r.vals[n], r.units[n])
	}
	for _, n := range r.notes {
		fmt.Println("  note:", n)
	}
	specs := spec.EndToEnd
	if o.trace {
		specs = spec.PerLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]metric{}
	for _, s := range specs {
		v, ok := r.vals[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s was not measured", s.Name)
			v = 0
		}
		if ok && r.units[s.Name] != s.Unit {
			r.fail("metric %s measured in %s, declared in %s", s.Name, r.units[s.Name], s.Unit)
		}
		ms[s.Name] = metric{Value: v, Unit: s.Unit}
	}
	for _, n := range r.invalid {
		fmt.Println("  INVALID:", n)
	}
	attempted := r.out.Attempted
	if attempted < 1 {
		attempted = 1
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		Correct:   len(r.invalid) == 0 && !r.out.Diverged && r.out.failed() == 0,
		Attempted: attempted,
		Failed:    r.out.failed(),
		Metrics:   ms,
	}
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
}

var started = time.Now()

// logf writes a progress line to stderr.
func logf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "[%6.1fs] %s\n", time.Since(started).Seconds(), fmt.Sprintf(format, args...))
}

// elapsedS is seconds since t.
func elapsedS(t time.Time) float64 { return time.Since(t).Seconds() }
