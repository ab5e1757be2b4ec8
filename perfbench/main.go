// Command perfbench is the repository's end-to-end benchmark. It drives
// one workload through the system's public entry points — the pool
// executor with job.Build, the serve handler over loopback through
// serveclient, and sim.RunOpts — for a fixed wall-clock window, checks
// every output, and prints one JSON result line.
//
// With -trace 0 it reports the end-to-end metrics (op latency, rate,
// failures, allocation, set-up time). With -trace 1 it mixes untraced
// and traced ops, records spans from this package around the calls
// into each layer, writes them out under .bench_build/spans, and
// reports the per-layer table derived from them.
//
// Run it through run.py from the repository root:
//
//	python3 perfbench/run.py --workload sor-affinity --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// setupRepeats is how many times a -trace 0 run sets the workload up,
// once per slice of its window; setup_s is their median, so one slow
// start does not move it.
const setupRepeats = 10

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// procs is the real-runtime worker count (0 for simulator-only
	// workloads); the run refuses to start when it exceeds the host.
	procs int
	// setup builds a ready instance: executor or server started,
	// reference outputs computed, warm-up ops done.
	setup func(seed int64) (instance, error)
}

// instance is a set-up workload. op runs one timed operation for
// client c (0 ≤ c < clients) and returns a non-nil error when it
// failed; errors wrapping errWrongOutput mark incorrect outputs.
type instance interface {
	clients() int
	op(c int, o *opCtx) error
	// layerMetrics derives the per-layer metrics from the traced spans
	// and the counts the instance gathered during traced ops.
	layerMetrics(t *traceSet) map[string]float64
	close()
}

var workloads = []workload{
	{name: "sor-affinity", procs: loopProcs, setup: setupSOR},
	{name: "skew-steal", procs: loopProcs, setup: setupSkew},
	{name: "serve-closed", procs: serveProcs, setup: setupServe},
	{name: "sim-paper", setup: setupSim},
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name (sor-affinity, skew-steal, serve-closed, sim-paper)")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured wall-clock seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	genExpected := flag.String("gen-expected", "", "write the simulator's expected-cycles table to this file and exit")
	flag.Parse()

	if *genExpected != "" {
		if err := writeExpected(*genExpected); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		fmt.Fprintf(os.Stderr, "perfbench: -workload: unknown %q (want one of %s)\n", *name, workloadNames())
		return 2
	case *seconds <= 0:
		fmt.Fprintf(os.Stderr, "perfbench: -seconds: must be > 0, got %v\n", *seconds)
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintf(os.Stderr, "perfbench: -trace: want 0 or 1, got %d\n", *traced)
		return 2
	}

	env := stampEnv(*seed)
	if err := env.admit(w.procs); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	envLine, _ := json.Marshal(env) // plain strings and ints: cannot fail
	fmt.Printf("env %s\n", envLine)

	var res result
	var err error
	if *traced == 0 {
		res, err = runUntraced(w, *seed, *seconds)
	} else {
		res, err = runTraced(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env stamps a result with the host it ran on.
type env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
}

func stampEnv(seed int64) env {
	return env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Seed:       seed,
	}
}

// admit refuses a real-runtime workload that would oversubscribe the
// host: more workers than CPUs measures the Go scheduler's time
// slicing, not the loop scheduler.
func (e env) admit(procs int) error {
	if procs > e.NumCPU || procs > e.GOMAXPROCS {
		return fmt.Errorf("needs %d workers but the host has nproc=%d, GOMAXPROCS=%d; refusing an oversubscribed run", procs, e.NumCPU, e.GOMAXPROCS)
	}
	return nil
}

// cpuModel reads the first "model name" line of /proc/cpuinfo, or
// returns "unknown" where there is none.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
