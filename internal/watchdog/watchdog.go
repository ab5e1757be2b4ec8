// Package watchdog is the auto-triage subsystem's online anomaly
// detector: it watches the live observability plane's own health
// signals — the paper's affinity-hit ratio, the steal share, the
// rolling submission p99 — and fires a Trigger when one of them
// departs from its recent baseline. Detection is robust change-point
// style: each rule keeps a rolling window of recent observations and
// judges the newest against the window's median with a MAD-derived
// scale (internal/stats), so a stationary-but-noisy signal never
// alarms while a genuine collapse fires within a few ticks. Two
// auxiliary triggers ride along: an SLO-breach edge (an attached
// slo.Engine objective transitioning into breach) and a
// flight-recorder freeze (the plane recorded an anomaly dump — a
// panic or cancellation froze the rings).
//
// The detector is deliberately deterministic under a deterministic
// source: sampling is driven by explicit Tick calls (tests) or an
// slo.Every loop (loopserved, perflab), and the math involves no
// randomness — the same snapshot sequence always produces the same
// firing sequence. Consumers register OnTrigger callbacks; the stock
// consumer is internal/bundle, which captures a one-shot diagnostic
// bundle per firing (schedlint's telemetry check enforces that every
// watchdog construction site wires a bundle capture or carries an
// explicit allow).
package watchdog

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/livemetrics"
	"repro/internal/slo"
	"repro/internal/stats"
)

// Rule is one change-point detector over one signal. The zero values
// of the tuning fields select the defaults noted on each.
type Rule struct {
	// Name labels triggers and status rows.
	Name string `json:"name"`
	// Signal selects the series; its direction (a floor alarms on a
	// fall, a ceiling on a rise) and skip rule come from the slo
	// package's signal table.
	Signal slo.Metric `json:"signal"`
	// Window is the rolling baseline length in observed ticks
	// (default 64). The rule warms up silently until the window holds
	// Window/2 observations, so a cold engine cannot alarm.
	Window int `json:"window"`
	// K is the anomaly threshold in robust sigmas: an observation is
	// anomalous when it deviates from the window median by more than
	// K·max(1.4826·MAD, MinDev) on the rule's bad side (default 6).
	K float64 `json:"k"`
	// MinDev floors the robust scale in signal units, so a perfectly
	// flat baseline (MAD 0) does not alarm on measurement jitter.
	MinDev float64 `json:"min_dev"`
	// Consecutive is how many anomalous ticks in a row arm a firing
	// (default 3): a single weird scrape never pages. This bounds the
	// detection latency — a sustained shift fires on its
	// Consecutive-th anomalous tick.
	Consecutive int `json:"consecutive"`
	// Cooldown is how many ticks after a firing the rule stays
	// disarmed (default 240), so one sustained regression produces one
	// trigger, not a flapping stream.
	Cooldown int `json:"cooldown"`
}

func (r Rule) withDefaults() Rule {
	if r.Window <= 0 {
		r.Window = 64
	}
	if r.K <= 0 {
		r.K = 6
	}
	if r.Consecutive <= 0 {
		r.Consecutive = 3
	}
	if r.Cooldown <= 0 {
		r.Cooldown = 240
	}
	return r
}

func (r Rule) validate() error {
	if r.Name == "" {
		return fmt.Errorf("watchdog: rule with empty name")
	}
	if !r.Signal.Valid() {
		return fmt.Errorf("watchdog: rule %q: unknown signal %q", r.Name, r.Signal)
	}
	if r.MinDev < 0 {
		return fmt.Errorf("watchdog: rule %q: negative MinDev %g", r.Name, r.MinDev)
	}
	return nil
}

// DefaultRules returns the stock detector set: affinity-hit collapse,
// steal storm, and submission-p99 spike, with MinDev floors sized so
// the quiet jitter of a healthy engine (ratio noise well under 5
// points, p99 noise well under 2ms) cannot reach the K·sigma bar.
func DefaultRules() []Rule {
	return []Rule{
		{Name: "affinity-collapse", Signal: slo.MetricAffinityHitRatio, MinDev: 0.05},
		{Name: "steal-storm", Signal: slo.MetricStealShare, MinDev: 0.05},
		{Name: "latency-spike", Signal: slo.MetricP99SubmissionNS, MinDev: 2e6},
	}
}

// ServingRules returns the serving-layer detector set layered on top
// of DefaultRules by cmd/loopserved: a shed surge (queue collapse —
// refusals jumping well past their recent baseline) and an
// admission-wait stall. Both fire diagnostic bundles through the
// stock internal/bundle consumer, so the moments before an admission
// collapse stay recoverable.
func ServingRules() []Rule {
	return []Rule{
		{Name: "shed-surge", Signal: slo.MetricShedRate, MinDev: 0.05},
		{Name: "admission-stall", Signal: slo.MetricAdmissionP99NS, MinDev: 2e6},
	}
}

// Trigger is one firing: the rule, the offending observation, and the
// baseline it departed from.
type Trigger struct {
	// Rule names the detector that fired ("affinity-collapse", or the
	// synthetic "slo:<objective>" / "flight-freeze" sources).
	Rule string `json:"rule"`
	// Signal is the watched series (empty for the synthetic sources).
	Signal slo.Metric `json:"signal,omitempty"`
	// Tick is the detector tick at which the firing happened.
	Tick int64 `json:"tick"`
	// Value is the anomalous observation; Baseline the window median
	// it departed from; Sigma the robust scale; Deviation the distance
	// in sigmas (all zero for the synthetic sources).
	Value     float64 `json:"value"`
	Baseline  float64 `json:"baseline"`
	Sigma     float64 `json:"sigma"`
	Deviation float64 `json:"deviation"`
	// Reason is the human-readable one-liner.
	Reason string `json:"reason"`
	// At is the wall-clock firing time.
	At time.Time `json:"at"`
}

// Options tunes a Watchdog beyond its rules.
type Options struct {
	// SLO, when set, adds the breach edge-trigger: each objective
	// transitioning into Breaching fires one "slo:<name>" trigger.
	SLO *slo.Engine
	// AnomalySeq, when set, adds the flight-freeze trigger: a source
	// of the flight recorder's anomaly counter
	// (livemetrics.Recorder.AnomalySeq); each increment fires one
	// "flight-freeze" trigger.
	AnomalySeq func() int64
	// Now overrides the wall clock stamped on triggers (tests).
	Now func() time.Time
}

// ruleState is one rule's rolling detector state.
type ruleState struct {
	rule     Rule
	baseline []float64 // rolling window, insertion order
	next     int
	full     bool
	observed bool
	value    float64
	median   float64
	sigma    float64
	streak   int
	cooldown int
	firings  int64
}

// warm reports whether the baseline holds enough history to judge.
func (rs *ruleState) warm() bool {
	return rs.full || rs.next >= rs.rule.Window/2
}

func (rs *ruleState) push(v float64) {
	rs.baseline[rs.next] = v
	rs.next++
	if rs.next == len(rs.baseline) {
		rs.next, rs.full = 0, true
	}
}

func (rs *ruleState) window() []float64 {
	if rs.full {
		return rs.baseline
	}
	return rs.baseline[:rs.next]
}

// Watchdog is the online detector. Safe for concurrent use; sampling
// is driven by Tick, called directly (deterministic callers) or from
// an slo.Every loop. Triggers are delivered synchronously from the
// ticking goroutine to every registered OnTrigger callback, outside
// the detector's lock.
type Watchdog struct {
	source func() livemetrics.Snapshot
	opts   Options
	now    func() time.Time

	cbMu sync.Mutex
	cbs  []func(Trigger)

	mu     sync.Mutex
	rules  []*ruleState
	ticks  int64
	fired  int64
	reader slo.Reader
	// edge-trigger state for the synthetic sources
	prevBreach map[string]bool
	prevAnom   int64
	recent     []Trigger
}

// New creates a watchdog over a snapshot source.
func New(source func() livemetrics.Snapshot, rules []Rule, opts Options) (*Watchdog, error) {
	if source == nil {
		return nil, fmt.Errorf("watchdog: nil snapshot source")
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("watchdog: no rules")
	}
	w := &Watchdog{
		source:     source,
		opts:       opts,
		now:        opts.Now,
		prevBreach: map[string]bool{},
	}
	if w.now == nil {
		w.now = time.Now
	}
	seen := map[string]bool{}
	for _, r := range rules {
		if err := r.validate(); err != nil {
			return nil, err
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("watchdog: duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true
		rd := r.withDefaults()
		w.rules = append(w.rules, &ruleState{rule: rd, baseline: make([]float64, rd.Window)})
	}
	return w, nil
}

// OnTrigger registers a firing callback; callbacks run synchronously
// from the ticking goroutine, in registration order.
func (w *Watchdog) OnTrigger(fn func(Trigger)) {
	if fn == nil {
		return
	}
	w.cbMu.Lock()
	w.cbs = append(w.cbs, fn)
	w.cbMu.Unlock()
}

// Tick samples the source once, advances every detector, and delivers
// any triggers. Deterministic given a deterministic source.
func (w *Watchdog) Tick() {
	snap := w.source()
	at := w.now()

	w.mu.Lock()
	w.ticks++
	tick := w.ticks
	r := w.reader.Read(snap)
	var fired []Trigger
	for _, rs := range w.rules {
		if rs.cooldown > 0 {
			rs.cooldown--
		}
		value, ok := r.Value(rs.rule.Signal)
		if !ok {
			continue
		}
		rs.observed, rs.value = true, value
		if t, ok := rs.judge(value, tick, at); ok {
			fired = append(fired, t)
		}
	}
	fired = append(fired, w.syntheticTriggersLocked(tick, at)...)
	w.noteFiredLocked(fired)
	w.mu.Unlock()

	w.deliver(fired)
}

// judge scores one observation against the rule's rolling baseline and
// returns a trigger when the anomaly streak arms. The observation is
// always pushed into the baseline afterwards: the window median and
// MAD tolerate heavy contamination, and absorbing a sustained shift is
// the desired post-firing behaviour (the new level becomes the new
// normal while the rule cools down).
func (rs *ruleState) judge(v float64, tick int64, at time.Time) (Trigger, bool) {
	r := rs.rule
	var out Trigger
	ok := false
	if rs.warm() {
		win := rs.window()
		med := stats.Median(win)
		sigma := 1.4826 * stats.MAD(win)
		if sigma < r.MinDev {
			sigma = r.MinDev
		}
		dev := v - med
		if r.Signal.Floor() {
			dev = med - v
		}
		rs.median, rs.sigma = med, sigma
		if sigma > 0 && dev > r.K*sigma {
			rs.streak++
		} else {
			rs.streak = 0
		}
		if rs.streak >= r.Consecutive && rs.cooldown == 0 {
			dir := "rose"
			if r.Signal.Floor() {
				dir = "fell"
			}
			out = Trigger{
				Rule: r.Name, Signal: r.Signal, Tick: tick,
				Value: v, Baseline: med, Sigma: sigma, Deviation: dev / sigma,
				Reason: fmt.Sprintf("%s %s to %.4g against baseline %.4g (%.1f sigma, %d consecutive ticks)",
					r.Signal, dir, v, med, dev/sigma, rs.streak),
				At: at,
			}
			ok = true
			rs.firings++
			rs.streak = 0
			rs.cooldown = r.Cooldown
		}
	}
	rs.push(v)
	return out, ok
}

// syntheticTriggersLocked evaluates the SLO-breach and flight-freeze
// edges. Both are edge-triggered: a sustained breach or a standing
// anomaly dump fires once per transition, not once per tick.
func (w *Watchdog) syntheticTriggersLocked(tick int64, at time.Time) []Trigger {
	var out []Trigger
	if w.opts.SLO != nil {
		rep := w.opts.SLO.Report()
		for _, o := range rep.Objectives {
			if o.Breaching && !w.prevBreach[o.Name] {
				out = append(out, Trigger{
					Rule: "slo:" + o.Name, Tick: tick, Value: o.Value,
					Reason: fmt.Sprintf("SLO objective %s breaching (every window burning, last value %.4g)", o.Name, o.Value),
					At:     at,
				})
			}
			w.prevBreach[o.Name] = o.Breaching
		}
	}
	if w.opts.AnomalySeq != nil {
		if seq := w.opts.AnomalySeq(); seq > w.prevAnom {
			out = append(out, Trigger{
				Rule: "flight-freeze", Tick: tick, Value: float64(seq - w.prevAnom),
				Reason: fmt.Sprintf("flight recorder froze %d anomaly dump(s) since the last tick", seq-w.prevAnom),
				At:     at,
			})
			w.prevAnom = seq
		}
	}
	return out
}

// noteFiredLocked appends to the bounded recent-trigger history.
func (w *Watchdog) noteFiredLocked(fired []Trigger) {
	w.fired += int64(len(fired))
	w.recent = append(w.recent, fired...)
	const keep = 16
	if len(w.recent) > keep {
		w.recent = append(w.recent[:0], w.recent[len(w.recent)-keep:]...)
	}
}

// deliver runs the callbacks outside the detector lock, so a slow
// consumer (a bundle capture takes a profiling window) never blocks
// Status or a concurrent snapshot scrape.
func (w *Watchdog) deliver(fired []Trigger) {
	if len(fired) == 0 {
		return
	}
	w.cbMu.Lock()
	cbs := make([]func(Trigger), len(w.cbs))
	copy(cbs, w.cbs)
	w.cbMu.Unlock()
	for _, t := range fired {
		for _, fn := range cbs {
			fn(t)
		}
	}
}

// RuleStatus is one rule's live detector state.
type RuleStatus struct {
	Rule
	// Observed marks that the signal has produced at least one value.
	Observed bool `json:"observed"`
	// Value is the most recent observation; Baseline and Sigma the
	// detector state it was judged against (zero until warm).
	Value    float64 `json:"value"`
	Baseline float64 `json:"baseline"`
	Sigma    float64 `json:"sigma"`
	// Warm marks that the baseline window holds enough history to
	// judge; AnomalyStreak counts consecutive anomalous ticks so far;
	// CooldownLeft is the remaining disarmed ticks after a firing.
	Warm          bool  `json:"warm"`
	AnomalyStreak int   `json:"anomaly_streak"`
	CooldownLeft  int   `json:"cooldown_left"`
	Firings       int64 `json:"firings"`
}

// Status is one coherent view of the detector.
type Status struct {
	Ticks    int64        `json:"ticks"`
	Triggers int64        `json:"triggers"`
	Rules    []RuleStatus `json:"rules"`
	// Recent holds the most recent triggers, oldest first (bounded).
	Recent []Trigger `json:"recent,omitempty"`
}

// Status reports the detector's live state.
func (w *Watchdog) Status() Status {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := Status{Ticks: w.ticks, Triggers: w.fired}
	for _, rs := range w.rules {
		st.Rules = append(st.Rules, RuleStatus{
			Rule: rs.rule, Observed: rs.observed,
			Value: rs.value, Baseline: rs.median, Sigma: rs.sigma,
			Warm: rs.warm(), AnomalyStreak: rs.streak, CooldownLeft: rs.cooldown,
			Firings: rs.firings,
		})
	}
	st.Recent = append(st.Recent, w.recent...)
	return st
}
