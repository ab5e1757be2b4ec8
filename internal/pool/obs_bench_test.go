package pool

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/livemetrics"
	"repro/internal/sched"
	"repro/internal/spantrace"
)

// benchStream measures the per-submission cost of a live observability
// plane: the same AFS loop stream with and without instruments. The
// instrument cost per submission is roughly constant (it scales with
// chunk count, ~P·log N, not with N), so the relative overhead shrinks
// as loops grow — `perflab overhead` gates that property; these
// benchmarks are the microscope for it. The traced variants attach a
// span tracer on top of the plane, the full observer a served
// submission carries. The tracer recycles its worker span buffers, so
// once warm BenchmarkStreamTraced allocates as often per submission as
// BenchmarkSmallTraced (2 workers, 512 iterations): both price one
// submission's instrumentation set-up and seal:
//
//	go test ./internal/pool -run '^$' -bench 'Benchmark(Stream|Small)' -benchtime 100x -benchmem
func benchStream(b *testing.B, procs, n int, obs, traced bool) {
	spec, _ := sched.ByName("afs")
	x, err := New(procs)
	if err != nil {
		b.Fatal(err)
	}
	defer x.Close()
	if obs {
		p := livemetrics.New(livemetrics.Options{})
		x.SetObservability(p)
	}
	if traced {
		x.SetTracer(spantrace.NewTracer(spantrace.Options{}))
	}
	data := make([]float64, n)
	body := func(i int) { data[i] += 1 / (1 + data[i]) }
	cfg := core.Config{Procs: procs, Spec: spec}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := x.Submit(context.Background(), cfg, n, body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamBare(b *testing.B)   { benchStream(b, 4, 1<<15, false, false) }
func BenchmarkStreamObs(b *testing.B)    { benchStream(b, 4, 1<<15, true, false) }
func BenchmarkStreamTraced(b *testing.B) { benchStream(b, 4, 1<<15, true, true) }
func BenchmarkSmallTraced(b *testing.B)  { benchStream(b, 2, 512, true, true) }
