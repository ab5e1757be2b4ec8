package bundle

import (
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/livemetrics"
	"repro/internal/slo"
	"repro/internal/watchdog"
)

func newPlane(t *testing.T) *livemetrics.Plane {
	t.Helper()
	p := livemetrics.New(livemetrics.Options{})
	return p
}

// fakeClock is a settable Options.Now.
type fakeClock struct{ at time.Time }

func (c *fakeClock) now() time.Time          { return c.at }
func (c *fakeClock) advance(d time.Duration) { c.at = c.at.Add(d) }

func newCapturer(t *testing.T, dir string, opts Options) (*Store, *Capturer) {
	t.Helper()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	c, err := NewCapturer(s, Sources{Plane: newPlane(t), Label: "test"}, opts)
	if err != nil {
		t.Fatalf("NewCapturer: %v", err)
	}
	return s, c
}

func testTrigger() watchdog.Trigger {
	return watchdog.Trigger{
		Rule: "steal-storm", Signal: slo.MetricStealShare,
		Tick: 42, Value: 0.6, Baseline: 0.02, Sigma: 0.05, Deviation: 11.6,
		Reason: "steal_share rose to 0.6 against baseline 0.02",
	}
}

func TestCaptureReadRoundTrip(t *testing.T) {
	clock := &fakeClock{at: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
	_, c := newCapturer(t, t.TempDir(), Options{
		CPUProfile: 20 * time.Millisecond,
		Now:        clock.now,
	})

	e, err := c.Capture(testTrigger())
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	if e.Rule != "steal-storm" || e.SizeBytes == 0 {
		t.Fatalf("entry = %+v", e)
	}
	if c.Captures() != 1 {
		t.Fatalf("captures = %d, want 1", c.Captures())
	}

	path, ok := c.store.Path(e.ID)
	if !ok {
		t.Fatalf("Path(%q) not found", e.ID)
	}
	b, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if b.Meta.ID != e.ID || b.Meta.Trigger.Rule != "steal-storm" || b.Meta.Label != "test" {
		t.Errorf("manifest = %+v", b.Meta)
	}
	for _, name := range []string{MetricsName, FlightTraceName, CPUProfileName, HeapProfileName} {
		if len(b.File(name)) == 0 {
			t.Errorf("bundle missing %s (files: %v, notes: %v)", name, b.Meta.Files, b.Meta.Notes)
		}
	}
	// Manifest Files must match the actual tar contents.
	for _, name := range b.Meta.Files {
		if _, ok := b.Files[name]; !ok {
			t.Errorf("manifest lists %s but tar lacks it", name)
		}
	}
	// No SLO or runtime source wired: those entries must be absent, not
	// empty.
	if b.File(SLOName) != nil || b.File(RuntimeName) != nil {
		t.Errorf("unwired sources produced entries: %v", b.Meta.Files)
	}
	if !strings.HasPrefix(b.Meta.ID, "20260808T120000-") {
		t.Errorf("ID %q not minted from the injected clock", b.Meta.ID)
	}
}

func TestCaptureThrottle(t *testing.T) {
	clock := &fakeClock{at: time.Unix(1_700_000_000, 0)}
	_, c := newCapturer(t, t.TempDir(), Options{
		MinInterval: time.Minute, CPUProfile: -1, Now: clock.now,
	})

	if _, err := c.Capture(testTrigger()); err != nil {
		t.Fatalf("first capture: %v", err)
	}
	clock.advance(30 * time.Second)
	if _, err := c.Capture(testTrigger()); !errors.Is(err, ErrThrottled) {
		t.Fatalf("inside MinInterval: err = %v, want ErrThrottled", err)
	}
	clock.advance(31 * time.Second)
	if _, err := c.Capture(testTrigger()); err != nil {
		t.Fatalf("past MinInterval: %v", err)
	}
	if c.Captures() != 2 {
		t.Fatalf("captures = %d, want 2 (throttled one not counted)", c.Captures())
	}
}

func TestStoreEvictionOldestFirst(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{MaxBundles: 2})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	clock := &fakeClock{at: time.Unix(1_700_000_000, 0)}
	c, err := NewCapturer(s, Sources{Plane: newPlane(t), Label: "test"}, Options{
		MinInterval: time.Second, CPUProfile: -1, Now: clock.now,
	})
	if err != nil {
		t.Fatalf("NewCapturer: %v", err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		e, err := c.Capture(testTrigger())
		if err != nil {
			t.Fatalf("capture %d: %v", i, err)
		}
		ids = append(ids, e.ID)
		clock.advance(2 * time.Second)
	}

	got := s.List()
	if len(got) != 2 {
		t.Fatalf("retained %d bundles, want 2: %+v", len(got), got)
	}
	// Newest first; the oldest capture is gone from index and disk.
	if got[0].ID != ids[2] || got[1].ID != ids[1] {
		t.Errorf("List order = [%s %s], want [%s %s]", got[0].ID, got[1].ID, ids[2], ids[1])
	}
	if _, err := os.Stat(filepath.Join(dir, ids[0]+".tar")); !os.IsNotExist(err) {
		t.Errorf("evicted bundle %s still on disk (err=%v)", ids[0], err)
	}

	// Reopening re-indexes the survivors in the same order.
	s2, err := OpenStore(dir, StoreOptions{MaxBundles: 2})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	re := s2.List()
	if len(re) != 2 || re[0].ID != ids[2] || re[0].Rule != "steal-storm" {
		t.Errorf("reopened listing = %+v", re)
	}
}

func TestOpenStoreToleratesGarbage(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "junk.tar"), []byte("not a tar"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("OpenStore with garbage: %v", err)
	}
	if n := len(s.List()); n != 0 {
		t.Errorf("garbage indexed as %d bundles", n)
	}
}

// TestAttachCapturesOnWatchdogFiring exercises the whole auto-triage
// pipeline: a real watchdog over a synthetic collapsing source fires,
// Attach routes the trigger into a capture, and repeated firings are
// throttled silently.
func TestAttachCapturesOnWatchdogFiring(t *testing.T) {
	p99 := 1e5
	source := func() livemetrics.Snapshot {
		var s livemetrics.Snapshot
		s.Submission.Count = 100
		s.Submission.P99 = p99
		return s
	}
	w, err := watchdog.New(source, []watchdog.Rule{{
		Name: "latency-spike", Signal: slo.MetricP99SubmissionNS,
		Window: 8, Consecutive: 2, Cooldown: 4, MinDev: 1e3,
	}}, watchdog.Options{})
	if err != nil {
		t.Fatalf("watchdog.New: %v", err)
	}
	_, c := newCapturer(t, t.TempDir(), Options{
		MinInterval: time.Hour, CPUProfile: -1,
	})
	var attachErrs []error
	Attach(w, c, func(err error) { attachErrs = append(attachErrs, err) })

	for i := 0; i < 20; i++ {
		w.Tick() // warm a flat baseline
	}
	p99 = 5e7 // tail latency explodes
	for i := 0; i < 20; i++ {
		w.Tick() // fires repeatedly across cooldowns; only one capture lands
	}

	if got := c.Captures(); got != 1 {
		t.Fatalf("captures = %d, want exactly 1 (later firings throttled)", got)
	}
	if len(attachErrs) != 0 {
		t.Fatalf("Attach surfaced errors for throttled captures: %v", attachErrs)
	}
	b, err := ReadFile(filepath.Join(c.store.Dir(), c.store.List()[0].ID+".tar"))
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if b.Meta.Trigger.Rule != "latency-spike" {
		t.Errorf("captured trigger = %+v", b.Meta.Trigger)
	}
}

func TestHTTPListAndFetch(t *testing.T) {
	s, c := newCapturer(t, t.TempDir(), Options{CPUProfile: -1})
	e, err := c.Capture(testTrigger())
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}

	rec := httptest.NewRecorder()
	ServeList(rec, s)
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), e.ID) {
		t.Fatalf("list: code=%d body=%s", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	ServeBundle(rec, httptest.NewRequest("GET", "/bundle?id="+e.ID, nil), s)
	if rec.Code != 200 {
		t.Fatalf("fetch: code=%d body=%s", rec.Code, rec.Body.String())
	}
	b, err := Read(rec.Body)
	if err != nil {
		t.Fatalf("served tar does not read back: %v", err)
	}
	if b.Meta.ID != e.ID {
		t.Errorf("served bundle ID = %s, want %s", b.Meta.ID, e.ID)
	}

	rec = httptest.NewRecorder()
	ServeBundle(rec, httptest.NewRequest("GET", "/bundle?id=nope", nil), s)
	if rec.Code != 404 {
		t.Errorf("unknown id: code=%d, want 404", rec.Code)
	}
}
