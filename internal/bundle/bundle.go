// Package bundle is the auto-triage capture engine: when the watchdog
// (internal/watchdog) fires, it freezes a one-shot diagnostic bundle —
// a pprof CPU delta and heap profile, the flight recorder's frozen
// trace in forensics wire form, the slowest exemplar span trees, the
// SLO report, the Go-runtime snapshot, and the trigger metadata — into
// a bounded on-disk store with oldest-first eviction. The bundle is a
// single tar whose first entry is the manifest, so listing stays cheap
// and one `curl` moves the whole evidence set; `loopdoctor bundle`
// runs the offline attribution pipeline over it.
//
// The capture path is rate-limited (Options.MinInterval): a sustained
// regression produces one bundle per interval no matter how many rules
// fire, which bounds both disk churn and the profiling overhead a
// firing adds to a live engine.
package bundle

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/livemetrics"
	"repro/internal/runtimeobs"
	"repro/internal/slo"
	"repro/internal/watchdog"
)

// Canonical entry names inside a bundle tar.
const (
	// ManifestName is always the FIRST tar entry, so indexers read one
	// block instead of the whole bundle.
	ManifestName = "manifest.json"
	// FlightTraceName is the frozen flight ring as a
	// telemetry.TraceFile (only fully captured steps — ready for
	// Analyze).
	FlightTraceName = "flight.trace.json"
	// MetricsName is the full livemetrics snapshot at capture.
	MetricsName = "metrics.json"
	// SLOName is the slo.Engine report at capture (when wired).
	SLOName = "slo.json"
	// RuntimeName is the runtimeobs snapshot at capture (when wired).
	RuntimeName = "runtime.json"
	// CPUProfileName is the pprof CPU delta profile spanning the
	// capture's profiling window.
	CPUProfileName = "cpu.pprof"
	// HeapProfileName is the pprof heap profile at capture.
	HeapProfileName = "heap.pprof"
	// ExemplarPrefix prefixes per-exemplar span trees, each serialized
	// as a telemetry.TraceFile: exemplar-<traceID>.trace.json.
	ExemplarPrefix = "exemplar-"
)

// Meta is the bundle manifest.
type Meta struct {
	ID         string    `json:"id"`
	CapturedAt time.Time `json:"captured_at"`
	// Label names the engine (the daemon's label).
	Label string `json:"label,omitempty"`
	// Trigger is the watchdog firing that caused the capture.
	Trigger watchdog.Trigger `json:"trigger"`
	// Files lists the tar entries after the manifest.
	Files []string `json:"files"`
	// Notes records parts that were skipped and why (e.g. the CPU
	// profiler was already running).
	Notes []string `json:"notes,omitempty"`
}

// Sources are the live surfaces a capturer freezes. Plane is
// required; the rest enrich the bundle when wired.
type Sources struct {
	Plane   *livemetrics.Plane
	SLO     *slo.Engine
	Runtime *runtimeobs.Sampler
	// Label names the engine in manifests and trace metadata.
	Label string
}

// Options tunes a Capturer. Zero values select the defaults noted.
type Options struct {
	// MinInterval rate-limits captures (default 60s): triggers inside
	// the window return ErrThrottled instead of a bundle.
	MinInterval time.Duration
	// CPUProfile is the CPU delta profiling window (default 250ms;
	// negative disables the CPU profile entirely).
	CPUProfile time.Duration
	// Exemplars caps how many slowest span trees are captured
	// (default 3).
	Exemplars int
	// Now overrides the clock (tests).
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.MinInterval <= 0 {
		o.MinInterval = time.Minute
	}
	if o.CPUProfile == 0 {
		o.CPUProfile = 250 * time.Millisecond
	}
	if o.Exemplars <= 0 {
		o.Exemplars = 3
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// ErrThrottled marks a capture suppressed by the rate limit — the
// expected outcome for every trigger after the first during one
// sustained regression, not a failure.
var ErrThrottled = errors.New("bundle: capture throttled (within MinInterval of the previous one)")

// Capturer freezes diagnostic bundles into a Store.
type Capturer struct {
	store *Store
	src   Sources
	opts  Options

	mu       sync.Mutex
	lastAt   time.Time
	captures int64
}

// NewCapturer wires a capturer over the given sources.
func NewCapturer(store *Store, src Sources, opts Options) (*Capturer, error) {
	if store == nil {
		return nil, fmt.Errorf("bundle: nil store")
	}
	if src.Plane == nil {
		return nil, fmt.Errorf("bundle: Sources.Plane is required")
	}
	return &Capturer{store: store, src: src, opts: opts.withDefaults()}, nil
}

// Captures reports how many bundles this capturer has written.
func (c *Capturer) Captures() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.captures
}

// Capture freezes one bundle for the given trigger, or returns
// ErrThrottled inside the rate-limit window. Blocking: the CPU delta
// profile spans Options.CPUProfile of real time, so callers on a
// ticking goroutine skip ticks during a capture (by design — the
// engine under diagnosis keeps running, the detector pauses).
func (c *Capturer) Capture(t watchdog.Trigger) (Entry, error) {
	now := c.opts.Now()
	c.mu.Lock()
	if !c.lastAt.IsZero() && now.Sub(c.lastAt) < c.opts.MinInterval {
		c.mu.Unlock()
		return Entry{}, ErrThrottled
	}
	c.lastAt = now
	c.mu.Unlock()

	m := Meta{
		ID:         c.store.nextID(now),
		CapturedAt: now.UTC(),
		Label:      c.src.Label,
		Trigger:    t,
	}
	var files []file
	put := func(name string, data []byte) {
		files = append(files, file{name: name, data: data})
		m.Files = append(m.Files, name)
	}
	note := func(format string, args ...any) {
		m.Notes = append(m.Notes, fmt.Sprintf(format, args...))
	}

	// The CPU delta first: it is the only part that costs wall time,
	// and profiling while the regression is still hot is the point.
	if c.opts.CPUProfile > 0 {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			note("cpu profile skipped: %v", err)
		} else {
			time.Sleep(c.opts.CPUProfile)
			pprof.StopCPUProfile()
			put(CPUProfileName, buf.Bytes())
		}
	} else {
		note("cpu profile disabled")
	}

	snap := c.src.Plane.Snapshot()
	if data, err := marshal(snap); err == nil {
		put(MetricsName, data)
	} else {
		note("metrics snapshot skipped: %v", err)
	}

	var flight bytes.Buffer
	dump := c.src.Plane.Recorder().Dump("bundle: " + t.Rule)
	label := fmt.Sprintf("%s bundle %s (%s)", c.src.Label, m.ID, t.Rule)
	if err := dump.WriteTrace(&flight, label, c.src.Plane.Procs()); err != nil {
		note("flight trace skipped: %v", err)
	} else {
		put(FlightTraceName, flight.Bytes())
	}

	c.captureExemplars(snap, &m, &files)

	if c.src.SLO != nil {
		if data, err := marshal(c.src.SLO.Report()); err == nil {
			put(SLOName, data)
		} else {
			note("slo report skipped: %v", err)
		}
	}
	if c.src.Runtime != nil {
		// One fresh sample so the interval stats describe "now", not
		// the sampler's last background tick.
		c.src.Runtime.Sample()
		if data, err := marshal(c.src.Runtime.Snapshot()); err == nil {
			put(RuntimeName, data)
		} else {
			note("runtime snapshot skipped: %v", err)
		}
	}

	var heap bytes.Buffer
	if err := pprof.WriteHeapProfile(&heap); err != nil {
		note("heap profile skipped: %v", err)
	} else {
		put(HeapProfileName, heap.Bytes())
	}

	e, err := c.store.add(m, files)
	if err != nil {
		return Entry{}, err
	}
	c.mu.Lock()
	c.captures++
	c.mu.Unlock()
	return e, nil
}

// captureExemplars resolves the snapshot's slowest retained trace IDs
// against the plane's tracer and serializes each span tree in
// forensics wire form.
func (c *Capturer) captureExemplars(snap livemetrics.Snapshot, m *Meta, files *[]file) {
	tracer := c.src.Plane.Tracer()
	if tracer == nil {
		if len(snap.SubmissionExemplars) > 0 {
			m.Notes = append(m.Notes, "exemplar span trees skipped: no tracer attached")
		}
		return
	}
	taken := 0
	seen := map[uint64]bool{}
	for _, ex := range snap.SubmissionExemplars {
		if taken >= c.opts.Exemplars || seen[ex.TraceID] {
			continue
		}
		seen[ex.TraceID] = true
		tr := tracer.Get(ex.TraceID)
		if tr == nil {
			m.Notes = append(m.Notes, fmt.Sprintf("exemplar trace %d already evicted", ex.TraceID))
			continue
		}
		var buf bytes.Buffer
		if err := tr.WriteForensics(&buf, "real", "ns"); err != nil {
			m.Notes = append(m.Notes, fmt.Sprintf("exemplar trace %d skipped: %v", ex.TraceID, err))
			continue
		}
		name := fmt.Sprintf("%s%d.trace.json", ExemplarPrefix, ex.TraceID)
		*files = append(*files, file{name: name, data: buf.Bytes()})
		m.Files = append(m.Files, name)
		taken++
	}
}

func marshal(v any) ([]byte, error) { return json.MarshalIndent(v, "", "  ") }

// Attach wires the stock auto-triage pipeline: every watchdog trigger
// attempts a bundle capture; throttled captures are silent, real
// failures go to onErr (nil drops them). This is the pairing
// schedlint's telemetry check enforces at every watchdog construction
// site — a detector that fires into the void is worse than none,
// because it trains operators to ignore the signal.
func Attach(w *watchdog.Watchdog, c *Capturer, onErr func(error)) {
	w.OnTrigger(func(t watchdog.Trigger) {
		if _, err := c.Capture(t); err != nil && !errors.Is(err, ErrThrottled) && onErr != nil {
			onErr(err)
		}
	})
}
