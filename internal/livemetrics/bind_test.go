package livemetrics_test

import (
	"context"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/livemetrics"
	"repro/internal/pool"
	"repro/internal/sched"
)

// TestPlaneReportsEveryBoundExecutor: a plane shared by two executors
// (as serve's shards share one) reads the queue depths of both, summed
// by queue index, whichever was bound last. The AFS executor is bound
// first (twice: a repeat Bind is a no-op), then a GSS one whose
// dispenser has drained; a body blocked in each worker's first chunk
// holds the AFS queues still while the plane is read. Closing the
// executors unbinds them.
func TestPlaneReportsEveryBoundExecutor(t *testing.T) {
	const p, n = 2, 64
	plane := livemetrics.New(livemetrics.Options{})
	afs, err := pool.New(p)
	if err != nil {
		t.Fatal(err)
	}
	defer afs.Close()
	afs.SetObservability(plane)
	afs.SetObservability(plane)
	gss, err := pool.New(p)
	if err != nil {
		t.Fatal(err)
	}
	defer gss.Close()
	gss.SetObservability(plane)
	if _, err := gss.Submit(context.Background(), core.Config{Spec: sched.SpecGSS()}, n, func(int) {}); err != nil {
		t.Fatal(err)
	}

	var blocked atomic.Int32
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := afs.Submit(context.Background(), core.Config{Spec: sched.SpecAFS()}, n, func(int) {
			blocked.Add(1)
			<-release
		})
		done <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); blocked.Load() < p; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("%d of %d workers reached their first chunk", blocked.Load(), p)
		}
	}
	// Each worker took one local chunk of its ⌈n/p⌉ block and blocks in
	// its first iteration; the rest of each block is still queued.
	left := n/p - sched.SpecAFS().AFS.LocalAmount(n/p, p)
	got := plane.Snapshot().QueueDepths
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if want := []int{left, left}; !slices.Equal(got, want) {
		t.Errorf("QueueDepths = %v, want %v (the AFS queues plus the drained GSS dispenser)", got, want)
	}
	if got := plane.Procs(); got != p {
		t.Errorf("Procs = %d, want %d", got, p)
	}
	// Closing an executor unbinds its engine.
	afs.Close()
	gss.Close()
	if s := plane.Snapshot(); s.QueueDepths != nil || plane.Procs() != 0 {
		t.Errorf("after Close: QueueDepths %v, Procs %d; want none", s.QueueDepths, plane.Procs())
	}
}
