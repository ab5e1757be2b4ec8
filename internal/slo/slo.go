// Package slo is the burn-rate engine on top of the live
// observability plane: declarative service-level objectives over the
// scheduler's own health signals — submission tail latency, the
// paper's affinity-hit ratio, the steal share — evaluated as
// multi-window burn rates (the SRE alerting pattern: an objective
// breaches only when its error budget is burning too fast in EVERY
// window, so a single slow scrape cannot page and a sustained
// regression cannot hide).
//
// The engine samples a livemetrics.Snapshot source: each Tick turns
// the snapshot into one good/bad observation per objective (ratio
// metrics are computed from inter-sample counter deltas, so they
// measure the interval, not all history), windows retain observations
// by age, and burn rate is the window's bad fraction divided by the
// objective's error budget. Consumers: loopserved's /slo endpoint
// (JSON + HTML), the Prometheus exposition (WriteProm), and the
// `perflab slo` CI gate.
package slo

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/livemetrics"
)

// Metric identifies the snapshot-derived signal an objective watches.
type Metric string

const (
	// MetricP99SubmissionNS is the rolling p99 submission latency in
	// nanoseconds; the threshold is a ceiling. Skipped while the rolling
	// window holds no submissions.
	MetricP99SubmissionNS Metric = "p99_submission_latency_ns"
	// MetricAffinityHitRatio is the fraction of chunks executed on
	// their static ⌈N/P⌉ owner without having been stolen, over the
	// chunks that completed since the previous sample; the threshold is
	// a floor. Skipped when no new chunks ran.
	MetricAffinityHitRatio Metric = "affinity_hit_ratio"
	// MetricStealShare is steals per executed chunk since the previous
	// sample; the threshold is a ceiling. Skipped when no new chunks
	// ran.
	MetricStealShare Metric = "steal_share"
	// MetricAdmissionP99NS is the serving layer's rolling p99 admission
	// queue wait in nanoseconds (admitted jobs only); the threshold is
	// a ceiling. Skipped while no admitted job is in the rolling window
	// (including on planes with no serving frontend at all).
	MetricAdmissionP99NS Metric = "admission_p99_wait_ns"
	// MetricShedRate is the fraction of admission decisions since the
	// previous sample that shed the job (429); the threshold is a
	// ceiling. Skipped when the interval saw no decisions.
	MetricShedRate Metric = "shed_rate"
)

// floor reports whether the metric's threshold is a floor (bad when
// the value drops below it) rather than a ceiling.
func (m Metric) floor() bool { return m == MetricAffinityHitRatio }

func (m Metric) valid() bool {
	switch m {
	case MetricP99SubmissionNS, MetricAffinityHitRatio, MetricStealShare,
		MetricAdmissionP99NS, MetricShedRate:
		return true
	}
	return false
}

// Window is one burn-rate evaluation window.
type Window struct {
	// Duration is the window's extent; observations age out of it.
	Duration time.Duration `json:"duration_ns"`
	// MaxBurn is the burn-rate ceiling: the window is burning when
	// badFraction/budget reaches it. Shorter windows pair with higher
	// ceilings (fast burn) and longer windows with lower ones (slow
	// burn).
	MaxBurn float64 `json:"max_burn"`
}

// Objective is one declarative SLO.
type Objective struct {
	Name   string `json:"name"`
	Metric Metric `json:"metric"`
	// Threshold separates good from bad observations: a ceiling for
	// latency and steal share, a floor for the affinity-hit ratio.
	Threshold float64 `json:"threshold"`
	// Budget is the error budget: the tolerated bad-observation
	// fraction, in (0, 1].
	Budget float64 `json:"budget"`
	// Windows are the burn-rate windows; the objective breaches only
	// when every window is burning.
	Windows []Window `json:"windows"`
}

func (o Objective) validate() error {
	if o.Name == "" {
		return fmt.Errorf("slo: objective with empty name")
	}
	if !o.Metric.valid() {
		return fmt.Errorf("slo: objective %q: unknown metric %q", o.Name, o.Metric)
	}
	if o.Budget <= 0 || o.Budget > 1 {
		return fmt.Errorf("slo: objective %q: budget %v outside (0, 1]", o.Name, o.Budget)
	}
	if len(o.Windows) == 0 {
		return fmt.Errorf("slo: objective %q has no windows", o.Name)
	}
	for _, w := range o.Windows {
		if w.Duration <= 0 {
			return fmt.Errorf("slo: objective %q: non-positive window %v", o.Name, w.Duration)
		}
		if w.MaxBurn <= 0 {
			return fmt.Errorf("slo: objective %q: non-positive max burn %v", o.Name, w.MaxBurn)
		}
	}
	return nil
}

// DefaultObjectives returns the repo's stock objectives with generous,
// CI-safe thresholds: p99 submission latency under 50ms, affinity-hit
// ratio above 50%, steal share below 50%. Each pairs a fast-burn
// short window with a slow-burn long one.
func DefaultObjectives() []Objective {
	windows := []Window{
		{Duration: time.Minute, MaxBurn: 4},
		{Duration: 5 * time.Minute, MaxBurn: 1},
	}
	return []Objective{
		{Name: "submission-p99", Metric: MetricP99SubmissionNS, Threshold: 50e6, Budget: 0.05, Windows: windows},
		{Name: "affinity-hit-floor", Metric: MetricAffinityHitRatio, Threshold: 0.5, Budget: 0.10, Windows: windows},
		{Name: "steal-share-ceiling", Metric: MetricStealShare, Threshold: 0.5, Budget: 0.10, Windows: windows},
	}
}

// ServingObjectives returns the stock serving-layer objectives layered
// on top of DefaultObjectives by cmd/loopserved: admission p99 wait
// under 25ms and shed rate under 20%. The shed budget is deliberately
// loose — shedding is the *designed* overload response, so the
// objective pages only when refusals stop being the exception.
func ServingObjectives() []Objective {
	windows := []Window{
		{Duration: time.Minute, MaxBurn: 4},
		{Duration: 5 * time.Minute, MaxBurn: 1},
	}
	return []Objective{
		{Name: "admission-p99", Metric: MetricAdmissionP99NS, Threshold: 25e6, Budget: 0.05, Windows: windows},
		{Name: "shed-rate-ceiling", Metric: MetricShedRate, Threshold: 0.2, Budget: 0.10, Windows: windows},
	}
}

// Options tunes an Engine.
type Options struct {
	// Now overrides the engine's clock (tests); default time.Now.
	Now func() time.Time
}

// sample is one objective's observation at one Tick.
type sample struct {
	at  time.Time
	bad bool
}

// Engine evaluates objectives against a snapshot source. Safe for
// concurrent use; sampling is driven by Tick (deterministic callers:
// tests, perflab slo) or a background Start loop.
type Engine struct {
	source     func() livemetrics.Snapshot
	objectives []Objective
	now        func() time.Time
	maxWindow  time.Duration

	mu      sync.Mutex
	samples [][]sample // per objective, oldest first
	lastVal []float64  // most recent observed value per objective
	lastObs []bool     // whether the objective has ever been observed
	ticks   int64
	// previous cumulative counters, for inter-sample deltas
	primed       bool
	prevChunks   int64
	prevSteals   int64
	prevHits     int64
	prevAdmitted int64
	prevShed     int64
	stop         chan struct{}
	stopped      chan struct{}
}

// New creates an engine over a snapshot source.
func New(source func() livemetrics.Snapshot, objectives []Objective, opts Options) (*Engine, error) {
	if source == nil {
		return nil, fmt.Errorf("slo: nil snapshot source")
	}
	if len(objectives) == 0 {
		return nil, fmt.Errorf("slo: no objectives")
	}
	var maxWindow time.Duration
	for _, o := range objectives {
		if err := o.validate(); err != nil {
			return nil, err
		}
		for _, w := range o.Windows {
			if w.Duration > maxWindow {
				maxWindow = w.Duration
			}
		}
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	return &Engine{
		source:     source,
		objectives: objectives,
		now:        now,
		maxWindow:  maxWindow,
		samples:    make([][]sample, len(objectives)),
		lastVal:    make([]float64, len(objectives)),
		lastObs:    make([]bool, len(objectives)),
	}, nil
}

// Objectives returns the engine's objectives.
func (e *Engine) Objectives() []Objective { return e.objectives }

// Tick samples the source once and records one observation per
// objective. Ratio metrics skip the first Tick (it only primes the
// counter baseline) and any interval without new chunks.
func (e *Engine) Tick() {
	snap := e.source()
	now := e.now()

	var hits, chunks int64
	for _, w := range snap.Workers {
		hits += w.AffinityHits
		chunks += w.Chunks
	}
	steals := snap.Counters.Steals
	var admitted, shed int64
	if snap.Admission != nil {
		admitted, shed = snap.Admission.Admitted, snap.Admission.Shed
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	e.ticks++
	dChunks := chunks - e.prevChunks
	dSteals := steals - e.prevSteals
	dHits := hits - e.prevHits
	dAdmitted := admitted - e.prevAdmitted
	dShed := shed - e.prevShed
	primed := e.primed
	e.prevChunks, e.prevSteals, e.prevHits = chunks, steals, hits
	e.prevAdmitted, e.prevShed = admitted, shed
	e.primed = true

	for i, o := range e.objectives {
		var value float64
		observed := false
		switch o.Metric {
		case MetricP99SubmissionNS:
			if snap.Submission.Count > 0 {
				value = snap.Submission.P99
				observed = true
			}
		case MetricAffinityHitRatio:
			if primed && dChunks > 0 {
				value = float64(dHits) / float64(dChunks)
				observed = true
			}
		case MetricStealShare:
			if primed && dChunks > 0 {
				value = float64(dSteals) / float64(dChunks)
				observed = true
			}
		case MetricAdmissionP99NS:
			if snap.Admission != nil && snap.Admission.Wait.Count > 0 {
				value = snap.Admission.Wait.P99
				observed = true
			}
		case MetricShedRate:
			if primed && dAdmitted+dShed > 0 {
				value = float64(dShed) / float64(dAdmitted+dShed)
				observed = true
			}
		}
		if !observed {
			continue
		}
		bad := value > o.Threshold
		if o.Metric.floor() {
			bad = value < o.Threshold
		}
		e.lastVal[i], e.lastObs[i] = value, true
		kept := e.samples[i][:0]
		for _, s := range e.samples[i] {
			if now.Sub(s.at) <= e.maxWindow {
				kept = append(kept, s)
			}
		}
		e.samples[i] = append(kept, sample{at: now, bad: bad})
	}
}

// Start launches a background loop ticking at the given interval
// until the returned stop function is called. One loop at a time.
func (e *Engine) Start(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	e.mu.Lock()
	if e.stop != nil {
		e.mu.Unlock()
		panic("slo: Start called twice without stop")
	}
	stopCh := make(chan struct{})
	doneCh := make(chan struct{})
	e.stop, e.stopped = stopCh, doneCh
	e.mu.Unlock()
	go func() {
		defer close(doneCh)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stopCh:
				return
			case <-t.C:
				e.Tick()
			}
		}
	}()
	return func() {
		close(stopCh)
		<-doneCh
		e.mu.Lock()
		e.stop, e.stopped = nil, nil
		e.mu.Unlock()
	}
}

// WindowStatus is one window's burn state.
type WindowStatus struct {
	DurationSecs float64 `json:"duration_seconds"`
	MaxBurn      float64 `json:"max_burn"`
	Samples      int     `json:"samples"`
	BadFraction  float64 `json:"bad_fraction"`
	BurnRate     float64 `json:"burn_rate"`
	Burning      bool    `json:"burning"`
}

// ObjectiveStatus is one objective's evaluation.
type ObjectiveStatus struct {
	Objective
	// Value is the most recent observation (meaningful when Observed).
	Value    float64        `json:"value"`
	Observed bool           `json:"observed"`
	Windows  []WindowStatus `json:"window_status"`
	// Breaching is true when every window is burning.
	Breaching bool `json:"breaching"`
}

// Report is one coherent evaluation of all objectives.
type Report struct {
	Ticks      int64             `json:"ticks"`
	Objectives []ObjectiveStatus `json:"objectives"`
	// Breaching is true when any objective breaches.
	Breaching bool `json:"breaching"`
}

// Report evaluates every objective's windows as of now.
func (e *Engine) Report() Report {
	now := e.now()
	e.mu.Lock()
	defer e.mu.Unlock()
	rep := Report{Ticks: e.ticks}
	for i, o := range e.objectives {
		st := ObjectiveStatus{Objective: o, Value: e.lastVal[i], Observed: e.lastObs[i]}
		breaching := true
		for _, w := range o.Windows {
			ws := WindowStatus{DurationSecs: w.Duration.Seconds(), MaxBurn: w.MaxBurn}
			bad := 0
			for _, s := range e.samples[i] {
				if now.Sub(s.at) <= w.Duration {
					ws.Samples++
					if s.bad {
						bad++
					}
				}
			}
			if ws.Samples > 0 {
				ws.BadFraction = float64(bad) / float64(ws.Samples)
				ws.BurnRate = ws.BadFraction / o.Budget
				ws.Burning = ws.BurnRate >= w.MaxBurn
			}
			if !ws.Burning {
				breaching = false
			}
			st.Windows = append(st.Windows, ws)
		}
		st.Breaching = breaching && len(o.Windows) > 0
		if st.Breaching {
			rep.Breaching = true
		}
		rep.Objectives = append(rep.Objectives, st)
	}
	return rep
}
