package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// errWrongOutput marks an op whose output failed its check.
var errWrongOutput = errors.New("wrong output")

// minOps is the fewest timed ops a run needs for its p99 to have ten
// samples beyond it.
const minOps = 1000

// mode is what one op does in a run.
type mode int

const (
	untraced mode = iota
	traced
	serialRef // a reference serial run, for kernels.serial
	nModes
)

// serialRunner is an instance whose op has a serial reference form.
type serialRunner interface {
	serial(o *opCtx) error
}

// tally is one client goroutine's outcome counts and op latencies.
type tally struct {
	lat                      [nModes][]float64 // ms per correct op
	attempted, failed, wrong int64
}

// newTallies returns one tally per client.
func newTallies(clients int) []*tally {
	tallies := make([]*tally, clients)
	for c := range tallies {
		tallies[c] = &tally{}
		// Sized so appends do not allocate inside the measured window.
		tallies[c].lat[untraced] = make([]float64, 0, 1<<18)
	}
	return tallies
}

// drive runs inst's clients in a closed loop for the given seconds,
// adding each client's outcomes to its tally; schedule picks each op's
// mode from the time elapsed when it starts and the client's count of
// ops before it. It returns the wall time until the last client
// stopped.
func drive(inst instance, tallies []*tally, seconds float64, schedule func(el time.Duration, n int64) mode, recs []*recorder) time.Duration {
	n := inst.clients()
	sr, _ := inst.(serialRunner)
	var ids atomic.Int64
	d := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := tallies[c]
			for {
				el := time.Since(start)
				if el >= d {
					return
				}
				m := schedule(el, t.attempted)
				o := opCtx{id: ids.Add(1)}
				if m != untraced {
					o.rec = recs[c]
				}
				var err error
				t0 := now()
				if m == serialRef {
					err = sr.serial(&o)
				} else {
					err = inst.op(c, &o)
				}
				t1 := now()
				if m == traced {
					o.span(lOp, t0, t1)
				}
				t.attempted++
				switch {
				case errors.Is(err, errWrongOutput):
					t.wrong++
					t.failed++
					fmt.Fprintf(os.Stderr, "perfbench: op %d: %v\n", o.id, err)
				case err != nil:
					t.failed++
					fmt.Fprintf(os.Stderr, "perfbench: op %d: %v\n", o.id, err)
				default:
					t.lat[m] = append(t.lat[m], float64(t1-t0)/1e6)
				}
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// merged sums the tallies' counts and concatenates their latencies.
func merged(ts []*tally) *tally {
	out := &tally{}
	for _, t := range ts {
		out.attempted += t.attempted
		out.failed += t.failed
		out.wrong += t.wrong
		for m := range t.lat {
			out.lat[m] = append(out.lat[m], t.lat[m]...)
		}
	}
	return out
}

// runUntraced measures the end-to-end metrics. It splits the window
// into setupRepeats slices, each timed on a freshly set-up instance,
// and reports the median set-up time. Spreading the set-ups over the
// run matters on a shared host: there, set-up time drifts by a third
// over a few seconds, and set-ups made back to back all land in one
// spell.
func runUntraced(w *workload, seed int64, seconds float64) (result, error) {
	var (
		setups  []float64
		tallies []*tally
		elapsed time.Duration
		alloc   uint64
	)
	for i := 0; i < setupRepeats; i++ {
		// Each set-up starts from a collected heap, as in a new process.
		runtime.GC()
		t0 := time.Now()
		inst, err := w.setup(seed)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if tallies == nil {
			tallies = newTallies(inst.clients())
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		elapsed += drive(inst, tallies, seconds/setupRepeats, func(time.Duration, int64) mode { return untraced }, nil)
		runtime.ReadMemStats(&after)
		inst.close()
		alloc += after.TotalAlloc - before.TotalAlloc
	}
	fmt.Printf("%s: set-up seconds %.4f\n", w.name, setups)

	t := merged(tallies)
	lat := t.lat[untraced]
	ops := float64(len(lat))
	if len(lat) < minOps {
		fmt.Fprintf(os.Stderr, "perfbench: %s: only %d ops in %.1fs; op_ms_p99 has fewer than ten samples beyond it\n", w.name, len(lat), seconds)
	}
	okFrac := 0.0
	if t.attempted > 0 {
		okFrac = float64(t.attempted-t.failed) / float64(t.attempted)
	}
	allocKB := 0.0
	if ops > 0 {
		allocKB = float64(alloc) / 1024 / ops
	}
	fmt.Printf("%s: %d ops in %.2fs, %d failed, %d wrong outputs\n", w.name, len(lat), elapsed.Seconds(), t.failed, t.wrong)
	return result{
		Correct:   t.wrong == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"op_ms_p50":       {quantile(lat, 0.50), "ms"},
			"op_ms_p99":       {quantile(lat, 0.99), "ms"},
			"ops_per_s":       {ops / elapsed.Seconds(), "1/s"},
			"ok_frac":         {okFrac, "ratio"},
			"alloc_kb_per_op": {allocKB, "KiB"},
			"setup_s":         {quantile(setups, 0.5), "s"},
		},
	}, nil
}

// spansDir holds the traced runs' span files, inside the ignored build
// directory of the checkout.
const spansDir = ".bench_build/spans"

// serialBlock is the length of the traced run's time slots; every
// third slot runs serial references where the workload has them.
const serialBlock = 250 * time.Millisecond

// runTraced mixes untraced and traced ops in a pseudo-random order, so
// both see the same host and the same mix of inputs and neither falls
// into step with a periodic cost such as garbage collection. It writes
// the spans and reports the per-layer metrics.
func runTraced(w *workload, seed int64, seconds float64) (result, error) {
	inst, err := w.setup(seed)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	defer inst.close()
	_, hasSerial := inst.(serialRunner)
	recs := make([]*recorder, inst.clients())
	for c := range recs {
		recs[c] = &recorder{spans: make([]span, 0, 1<<16)}
	}
	tallies := newTallies(inst.clients())
	runtime.GC()
	drive(inst, tallies, seconds, func(el time.Duration, n int64) mode {
		if hasSerial && el/serialBlock%3 == 2 {
			return serialRef
		}
		return mode(mix(uint64(n)) & 1)
	}, recs)
	t := merged(tallies)
	ts := newTraceSet(recs)

	values := inst.layerMetrics(ts)
	if base := quantile(t.lat[untraced], 0.5); base > 0 {
		values["trace.overhead_frac"] = quantile(t.lat[traced], 0.5)/base - 1
	}
	values["trace.unattributed_frac"] = ts.unattributedFrac()
	values["trace.accounting_violations"] = float64(ts.violations)

	metrics := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		metrics[lm.name] = metric{values[lm.name], lm.unit}
		delete(values, lm.name)
	}
	if len(values) > 0 {
		return result{}, fmt.Errorf("layer metrics %v are not declared in layerMetrics", values)
	}
	printLayerTable(w.name, metrics)

	path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.tsv.gz", w.name, seed))
	if err := ts.write(path); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("%s: %d spans (%d dropped) written to %s; %d untraced, %d traced ops\n",
		w.name, len(ts.spans), ts.dropped, path, len(t.lat[untraced]), len(t.lat[traced]))
	return result{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}

// mix is the splitmix64 finaliser: a well-spread hash of x.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// layerMetrics is the per-layer table: every traced run reports each
// row (0 where the workload does not reach the layer). move names the
// end-to-end metric the row should move and on which workload.
var layerMetrics = []struct{ name, unit, move string }{
	{"job.build_ms", "ms", "op_ms_p50, alloc_kb_per_op on sor-affinity"},
	{"pool.submit_ms", "ms", "op_ms_p50, ops_per_s on skew-steal"},
	{"core.parallel_eff", "ratio", "op_ms_p50, ops_per_s on skew-steal (serial_ms / (P·submit_ms))"},
	{"core.steals_per_op", "count", "op_ms_p50 on skew-steal"},
	{"core.sync_ops_per_op", "count", "op_ms_p50 on skew-steal"},
	{"core.migrated_frac", "ratio", "op_ms_p50 on skew-steal (base: iterations per op)"},
	{"kernels.serial_ms", "ms", "op_ms_p50 on sor-affinity"},
	{"core.affinity_hit", "ratio", "op_ms_p50 on sor-affinity (base: local+remote queue ops)"},
	{"core.queue_ops_vs_thm31", "ratio", "none; worst queue's ops per loop over the Theorem 3.1 bound"},
	{"core.thm31_bound_ops", "count", "none; base of core.queue_ops_vs_thm31"},
	{"serve.handler_ms_p50", "ms", "op_ms_p50, ops_per_s on serve-closed"},
	{"serve.handler_ms_p99", "ms", "op_ms_p99 on serve-closed"},
	{"serve.admit_wait_ms_p50", "ms", "op_ms_p50 on serve-closed"},
	{"serve.admit_wait_ms_p99", "ms", "op_ms_p99 on serve-closed"},
	{"serve.other_ms_p50", "ms", "op_ms_p50 on serve-closed (handler − wait − exec)"},
	{"core.exec_ms_p50", "ms", "op_ms_p50 on serve-closed (server elapsed_ns)"},
	{"http.client_ms_p50", "ms", "op_ms_p50 on serve-closed (rtt − handler)"},
	{"serve.shed_frac", "ratio", "op_ms_p99, ops_per_s on serve-closed"},
	{"sim.build_ms", "ms", "op_ms_p50 on sim-paper"},
	{"sim.run_ms.gauss", "ms", "ops_per_s, op_ms_p50 on sim-paper"},
	{"sim.run_ms.sor", "ms", "ops_per_s, op_ms_p50 on sim-paper"},
	{"sim.run_ms.tc-skew", "ms", "ops_per_s, op_ms_p50 on sim-paper"},
	{"sim.sync_ops_per_op", "count", "ops_per_s on sim-paper (exact)"},
	{"sim.cache_accesses_per_op", "count", "ops_per_s on sim-paper (exact)"},
	{"trace.overhead_frac", "ratio", "none; traced over untraced op p50, minus 1"},
	{"trace.unattributed_frac", "ratio", "none; op time outside every layer span"},
	{"trace.accounting_violations", "count", "none; spans whose children overrun them"},
}

func printLayerTable(name string, metrics map[string]metric) {
	fmt.Printf("%s per-layer table:\n", name)
	fmt.Printf("  %-30s %14s %-6s  %s\n", "metric", "value", "unit", "should move")
	for _, lm := range layerMetrics {
		fmt.Printf("  %-30s %14.6g %-6s  %s\n", lm.name, metrics[lm.name].Value, lm.unit, lm.move)
	}
}
