package telemetry

// Prov is one per-chunk provenance record: which processor executed
// the chunk, which queue it came from (and whether it migrated), and
// the decomposition of the chunk's execution window into the paper's
// cost mechanisms. The telemetry Event stream says *what happened*;
// Prov records carry enough cost structure for internal/forensics to
// say *why an execution took as long as it did*.
//
// Time fields use the substrate's native unit (simulator cycles, real
// runtime nanoseconds), matching Event.
//
// For simulator streams the execution window decomposes exactly:
//
//	End - Start = Compute + CacheReload + BusWait
//
// The real runtime cannot separate memory stalls from computation on
// the host, so its records carry the whole window in Compute and zero
// CacheReload/BusWait; QueueWait still reflects measured dispatch
// delays (central-queue lock waits, steal latencies).
type Prov struct {
	// Step is the program step (outer-loop phase) the chunk ran in.
	Step int
	// Proc is the processor that executed the chunk.
	Proc int
	// Owner is the work queue the chunk was fetched from: the owning
	// processor's index for distributed-queue algorithms (AFS), or -1
	// for central-queue algorithms with no processor affinity.
	Owner int
	// Stolen marks a chunk that migrated: it was removed from Owner's
	// queue by Proc (Owner != Proc).
	Stolen bool
	// Lo, Hi is the executed iteration range [Lo, Hi).
	Lo, Hi int
	// Start, End is the execution window (excluding the preceding
	// fetch wait, which QueueWait covers).
	Start, End float64
	// QueueWait is time spent waiting to be served by a work queue
	// immediately before this chunk (central-queue serialisation,
	// contended local queue, or steal latency). It precedes Start. On
	// a stolen chunk it is exactly the steal: [Start-QueueWait, Start]
	// (DispatchEvent).
	QueueWait float64
	// Compute is pure loop-body time within the window.
	Compute float64
	// CacheReload is time stalled moving missed data into the local
	// cache (the paper's migration-induced reload cost). Simulator
	// streams only.
	CacheReload float64
	// BusWait is time queueing for the shared interconnect during
	// execution. Simulator streams only.
	BusWait float64
	// Misses is the number of cache misses charged to the chunk.
	// Simulator streams only.
	Misses int
}

// Iters returns the number of iterations the record covers.
func (p Prov) Iters() int { return p.Hi - p.Lo }

// A ProvSink consumes provenance records as chunks complete. Emit is
// called from the hot path of both runtimes; implementations should be
// cheap. Sinks used with the real goroutine runtime must be safe for
// concurrent use (Log is).
type ProvSink interface {
	Emit(Prov)
}
