// Command perfbench is the repository benchmark. It drives the AutoMDT
// transfer engine, scheduler and offline pipeline through their Go APIs
// on one of three seeded workloads (bulk, small-jobs, pipeline) and
// prints, as the last line of standard output, one JSON object with the
// workload's end-to-end metrics (--trace 0) or per-layer metrics
// (--trace 1). With --repeat N it runs the workload N times on
// consecutive seeds, each in a fresh process, and prints every metric's
// median and quartiles. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates what one workload run measured and checked.
type report struct {
	attempted int
	failed    int
	problems  []string
	names     []string // metric names in print order
	metrics   map[string]metric
	notes     map[string]string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]string{}}
}

// set records a metric; note is printed beside it on the human-readable
// lines (sample counts, definitions), never in the JSON.
func (r *report) set(name, unit string, v float64, note string) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.notes[name] = note
}

// op counts one attempted operation; a non-nil err marks it failed and
// keeps the reason for the report.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

// fail counts an already-attempted operation (or a same-path check) as
// failed.
func (r *report) fail(err error) {
	r.failed++
	r.problems = append(r.problems, err.Error())
}

// options are the command-line settings shared by every workload.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	workdir string
}

var workloads = map[string]func(options) (*report, error){
	"bulk":       runBulk,
	"small-jobs": runSmallJobs,
	"pipeline":   runPipeline,
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: bulk, small-jobs or pipeline")
	seed := flag.Int64("seed", 1, "workload seed; every generated input derives from it")
	seconds := flag.Int("seconds", 10, "measured time budget of the run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	repeat := flag.Int("repeat", 0, "steadiness mode: run the workload this many times on seeds seed, seed+1, …")
	workdir := flag.String("workdir", ".bench_build/work", "scratch directory for generated files")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want bulk, small-jobs or pipeline)\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	if *repeat > 0 {
		if err := steadiness(*name, *seed, *seconds, *trace, *workdir, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	opts := options{seed: *seed, seconds: float64(*seconds), trace: *trace == 1, workdir: *workdir}
	if err := os.MkdirAll(opts.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	start := time.Now()
	rep, err := fn(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, n := range rep.names {
		m := rep.metrics[n]
		line := fmt.Sprintf("%-40s %14.6g %s", n, m.Value, m.Unit)
		if note := rep.notes[n]; note != "" {
			line += "  (" + note + ")"
		}
		fmt.Println(line)
	}
	for _, p := range rep.problems {
		fmt.Println("FAILED:", p)
	}
	fmt.Printf("workload %s seed %d trace %d: %d ops attempted, %d failed, %.1fs\n",
		*name, *seed, *trace, rep.attempted, rep.failed, time.Since(start).Seconds())
	out, err := json.Marshal(result{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}
