// Command perfbench is the repository benchmark: it runs one workload at a
// given seed for a given number of seconds, checks the outputs, and prints
// every metric by name with its unit. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end figures (measured with no
// tracing); with -trace 1 a separate traced run reports the per-layer
// figures, the reconciliation of layer self-times against the untraced
// slot time, and the tracing overhead. See README.md for the workloads,
// the metric → layer → end-to-end table, and the sizing pitfalls.
//
// Usage (from the repository root, via the wrapper that builds it):
//
//	python3 perfbench/run.py --workload sim-paper --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run    func(seed uint64, budget time.Duration) (*result, error)
	traced func(seed uint64, budget time.Duration) (*result, error)
}{
	"sim-paper":   {runSimPaper, traceSimPaper},
	"serve-paper": {runServePaper, traceServePaper},
	"serve-fanin": {runFanin, traceFanin},
}

func main() {
	workload := flag.String("workload", "", "workload: sim-paper | serve-paper | serve-fanin | all")
	seed := flag.Uint64("seed", 1, "workload seed (the same seed gives the same inputs)")
	seconds := flag.Float64("seconds", 10, "length of the measured region in seconds")
	traceOn := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer run")
	flag.Parse()

	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	if *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	if *workload == "all" {
		os.Exit(runAll(names, *seed, *seconds, *traceOn))
	}
	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want all or one of %v)\n", *workload, names)
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	run := w.run
	if *traceOn == 1 {
		run = w.traced
	}
	// A desynchronised client or a stalled daemon must fail fast with a
	// message, never hang the caller: every wait inside the workloads is
	// bounded, and this watchdog bounds the run as a whole.
	watchdog := time.AfterFunc(3*budget+60*time.Second, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s: run exceeded %v; aborting\n", *workload, 3*budget+60*time.Second)
		os.Exit(3)
	})
	res, err := run(*seed, budget)
	watchdog.Stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	res.print(os.Stdout, *workload, *seed)
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports: the gate verdict, operations attempted
// and failed, the named metrics, and human-readable notes (gate failures,
// sample counts, the reconciliation) printed above the JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]metric{}}
}

// set records a metric; the unit comes from the metric table so a name is
// always printed with the same unit.
func (r *result) set(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("perfbench: metric " + name + " missing from the metric table")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.Correct = false
		r.note("GATE FAIL metric %s is not finite (%v)", name, v)
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: u}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// gate records a correctness check; a non-nil error fails the run.
func (r *result) gate(name string, err error) {
	if err != nil {
		r.Correct = false
		r.note("GATE FAIL %s: %v", name, err)
		return
	}
	r.note("gate ok   %s", name)
}

func (r *result) print(f *os.File, workload string, seed uint64) {
	fmt.Fprintf(f, "workload %s seed %d\n", workload, seed)
	for _, n := range r.notes {
		fmt.Fprintln(f, "  "+n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(f, "  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(f, "  attempted %d failed %d correct %v\n", r.Attempted, r.Failed, r.Correct)
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintln(f, string(b))
}

// runAll runs every workload in turn, each in its own process so each
// reports its own peak RSS, and returns non-zero if any run failed.
func runAll(names []string, seed uint64, seconds float64, traceOn int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	code := 0
	for _, n := range names {
		cmd := exec.Command(self, "-workload", n, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(traceOn))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			code = 1
		}
	}
	return code
}
