package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/job"
	"repro/internal/livemetrics"
	"repro/internal/promtext"
)

// fakeClock is a manually advanced admission clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// tinySpec is a job small enough that a full pipeline round-trip costs
// microseconds.
func tinySpec(tenant string) job.Spec {
	return job.Spec{
		Kernel: "spin",
		Params: job.Params{N: 64, Phases: 1, Work: 1},
		Procs:  2,
		Tenant: tenant,
	}
}

// TestWFQProportionalShare pins the SFQ invariant the fairness gate
// relies on: with both tenants fully backlogged, dispatch slots split
// in proportion to weight regardless of arrival order or volume.
func TestWFQProportionalShare(t *testing.T) {
	q := newWFQ(1000)
	now := time.Unix(0, 0)
	for i := 0; i < 90; i++ {
		if q.push(&submission{tenant: "a"}, 1, now) == nil {
			t.Fatal("push a refused")
		}
	}
	for i := 0; i < 90; i++ {
		if q.push(&submission{tenant: "b"}, 2, now) == nil {
			t.Fatal("push b refused")
		}
	}
	counts := map[string]int{}
	for i := 0; i < 60; i++ {
		counts[q.pop().e.tenant]++
	}
	// Weight 2 vs 1: b should take two slots for every one of a's.
	if counts["a"] < 19 || counts["a"] > 21 || counts["b"] < 39 || counts["b"] > 41 {
		t.Fatalf("60 dispatches split a=%d b=%d, want ~20/~40", counts["a"], counts["b"])
	}

	// A tenant arriving mid-stream starts at the current virtual time —
	// it competes fairly from now on, with no credit for its idle past.
	for i := 0; i < 30; i++ {
		q.push(&submission{tenant: "c"}, 1, now)
	}
	counts = map[string]int{}
	for i := 0; i < 40; i++ {
		counts[q.pop().e.tenant]++
	}
	if counts["c"] == 0 || counts["c"] > 15 {
		t.Fatalf("late tenant got %d of 40 slots (a=%d b=%d)", counts["c"], counts["a"], counts["b"])
	}
}

// TestWFQRemoveFreesSlot: removing a queued entry frees its depth slot
// at once, leaves the others' tags and order alone, and is a no-op
// once the entry has been popped.
func TestWFQRemoveFreesSlot(t *testing.T) {
	q := newWFQ(3)
	now := time.Unix(0, 0)
	var ens []*entry
	for _, tenant := range []string{"a", "b", "a"} {
		ens = append(ens, q.push(&submission{tenant: tenant}, 1, now))
	}
	tags := [][2]float64{{ens[0].start, ens[0].finish}, {ens[2].start, ens[2].finish}}
	q.remove(ens[1])
	if q.depth() != 2 || q.push(&submission{tenant: "c"}, 1, now) == nil {
		t.Fatalf("removal did not free a slot (depth %d)", q.depth())
	}
	first := q.pop()
	q.remove(first) // already popped
	if first != ens[0] || q.depth() != 2 {
		t.Fatalf("popped %+v, depth %d after removing it again", first, q.depth())
	}
	if second, third := q.pop(), q.pop(); second.e.tenant != "c" || third != ens[2] {
		t.Fatalf("then popped %s and %s, want c and the remaining a job", second.e.tenant, third.e.tenant)
	}
	if got := [][2]float64{{ens[0].start, ens[0].finish}, {ens[2].start, ens[2].finish}}; got[0] != tags[0] || got[1] != tags[1] {
		t.Fatalf("tags moved from %v to %v", tags, got)
	}
}

func TestWFQBoundedDepth(t *testing.T) {
	q := newWFQ(3)
	now := time.Unix(0, 0)
	for i := 0; i < 3; i++ {
		if q.push(&submission{tenant: "a"}, 1, now) == nil {
			t.Fatalf("push %d refused under the bound", i)
		}
	}
	if q.push(&submission{tenant: "a"}, 1, now) != nil {
		t.Fatal("push beyond the depth bound accepted")
	}
	if q.depth() != 3 {
		t.Fatalf("depth = %d, want 3", q.depth())
	}
}

// TestQuotaShedDeterministic drives the token bucket with a fake
// clock: a 10 jobs/sec tenant admits exactly its burst, sheds with the
// refill interval as Retry-After, and recovers once the clock
// advances.
func TestQuotaShedDeterministic(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	s, err := New(Options{
		Procs: 2,
		Tenants: map[string]TenantConfig{
			"metered": {Rate: 10, Burst: 1},
		},
		Now: clock.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	spec := tinySpec("metered")
	if _, err := s.Submit(context.Background(), spec); err != nil {
		t.Fatalf("burst submission refused: %v", err)
	}
	_, err = s.Submit(context.Background(), spec)
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("over-quota submission returned %v, want *ShedError", err)
	}
	if shed.Reason != "quota" || shed.Tenant != "metered" {
		t.Fatalf("shed = %+v", shed)
	}
	if shed.RetryAfter <= 0 || shed.RetryAfter > 100*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want (0, 100ms] at 10 jobs/sec", shed.RetryAfter)
	}
	if got := HTTPStatus(err); got != 429 {
		t.Fatalf("shed classifies as %d, want 429", got)
	}

	clock.advance(100 * time.Millisecond)
	if _, err := s.Submit(context.Background(), spec); err != nil {
		t.Fatalf("submission after refill refused: %v", err)
	}
}

// TestOverloadFavoredTenantUnharmed is the acceptance property in
// deterministic form: one tenant submits at 4× its quota while the
// other stays inside its own; every excess job sheds as 429 material
// and the favored tenant's goodput is untouched (100% of fair share).
func TestOverloadFavoredTenantUnharmed(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	plane := livemetrics.New(livemetrics.Options{})
	s, err := New(Options{
		Procs: 2,
		Tenants: map[string]TenantConfig{
			"steady":     {Rate: 100, Burst: 1},
			"aggressive": {Rate: 100, Burst: 1},
		},
		Plane: plane,
		Now:   clock.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const rounds = 25
	var steadyOK, aggOK, aggShed int
	for i := 0; i < rounds; i++ {
		clock.advance(10 * time.Millisecond) // exactly one token per tenant per round
		if _, err := s.Submit(context.Background(), tinySpec("steady")); err != nil {
			t.Fatalf("round %d: steady tenant refused: %v", i, err)
		}
		steadyOK++
		for j := 0; j < 4; j++ { // 4× the sustainable rate
			_, err := s.Submit(context.Background(), tinySpec("aggressive"))
			switch {
			case err == nil:
				aggOK++
			case HTTPStatus(err) == 429:
				aggShed++
			default:
				t.Fatalf("round %d: unexpected error %v", i, err)
			}
		}
	}
	if steadyOK != rounds {
		t.Fatalf("steady goodput %d/%d", steadyOK, rounds)
	}
	if aggOK != rounds || aggShed != 3*rounds {
		t.Fatalf("aggressive tenant: %d admitted %d shed, want %d/%d", aggOK, aggShed, rounds, 3*rounds)
	}

	// The plane's per-tenant series carry the same story for the CI
	// smoke test's prom scrape.
	var buf bytes.Buffer
	if err := livemetrics.WriteProm(&buf, plane.Snapshot()); err != nil {
		t.Fatal(err)
	}
	exp, err := promtext.Parse(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := exp.Value("loopsched_tenant_shed_total", "tenant", "aggressive"); v != float64(3*rounds) {
		t.Fatalf("aggressive shed series = %v, want %d", v, 3*rounds)
	}
	if v, _ := exp.Value("loopsched_tenant_completed_total", "tenant", "steady"); v != float64(rounds) {
		t.Fatalf("steady completed series = %v, want %d", v, rounds)
	}
}

// TestShardReuse pins the fleet-wide affinity contract: jobs sharing
// scheduler×procs land on one persistent executor (its AFS ownership
// state survives between them), and a different procs count forks a
// new shard.
func TestShardReuse(t *testing.T) {
	s, err := New(Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < 3; i++ {
		if _, err := s.Submit(context.Background(), tinySpec("")); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	other := tinySpec("")
	other.Procs = 1
	if _, err := s.Submit(context.Background(), other); err != nil {
		t.Fatal(err)
	}

	st := s.Status()
	if len(st.Shards) != 2 {
		t.Fatalf("shards = %+v, want 2 (AFS×2 reused, AFS×1 forked)", st.Shards)
	}
	byName := map[string]ShardStatus{}
	for _, sh := range st.Shards {
		byName[sh.Shard] = sh
	}
	if sh := byName["AFS×2"]; sh.Submissions != 3 {
		t.Fatalf("AFS×2 shard = %+v, want 3 submissions", sh)
	}
	if sh := byName["AFS×1"]; sh.Submissions != 1 {
		t.Fatalf("AFS×1 shard = %+v, want 1 submission", sh)
	}
	if st.Dispatched != 4 {
		t.Fatalf("dispatched = %d, want 4", st.Dispatched)
	}
}

func TestRejectInvalidSpec(t *testing.T) {
	s, err := New(Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cases := []job.Spec{
		{},                         // no kernel
		{Kernel: "no-such-kernel"}, // unknown kernel
		{Kernel: "spin", Scheduler: "no-such-sched"},
	}
	for _, spec := range cases {
		_, err := s.Submit(context.Background(), spec)
		var rej *RejectError
		if !errors.As(err, &rej) {
			t.Errorf("spec %+v: err = %v, want *RejectError", spec, err)
			continue
		}
		if got := HTTPStatus(err); got != 400 {
			t.Errorf("spec %+v classifies as %d, want 400", spec, got)
		}
	}
}

// TestRejectedTenantLabelParses: a tenant name comes from the request
// body unchecked, and a rejected submission still gets its tenant's
// series. Whatever the name holds, the plane's exposition must parse
// and its tenant label must read back as the name.
func TestRejectedTenantLabelParses(t *testing.T) {
	for _, tenant := range []string{"evil\tname", "bell\a", `quote"d`, `back\slash`, "é"} {
		plane := livemetrics.New(livemetrics.Options{})
		s, err := New(Options{Procs: 2, Plane: plane})
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Submit(context.Background(), job.Spec{Kernel: "no-such-kernel", Tenant: tenant})
		if got := HTTPStatus(err); got != 400 {
			t.Errorf("tenant %q: status %d, want 400", tenant, got)
		}
		s.Close()
		var buf bytes.Buffer
		if err := livemetrics.WriteProm(&buf, plane.Snapshot()); err != nil {
			t.Fatal(err)
		}
		exp, err := promtext.Parse(&buf)
		if err != nil {
			t.Errorf("tenant %q: the scrape does not parse: %v", tenant, err)
			continue
		}
		if v, err := exp.Value("loopsched_tenant_rejected_total", "tenant", tenant); err != nil || v != 1 {
			t.Errorf("tenant %q: rejected_total = %v, %v; want 1", tenant, v, err)
		}
	}
}

func TestCloseDrains(t *testing.T) {
	s, err := New(Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), tinySpec("")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = s.Submit(context.Background(), tinySpec(""))
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
	if got := HTTPStatus(err); got != 503 {
		t.Fatalf("ErrClosed classifies as %d, want 503", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second close not idempotent:", err)
	}
}

// TestHTTPEndToEnd exercises the wire contract: a successful job
// round-trip with a reproducible checksum, 429 + Retry-After on shed,
// 400 on an invalid spec, and the introspection endpoints.
func TestHTTPEndToEnd(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	s, err := New(Options{
		Procs: 2,
		Tenants: map[string]TenantConfig{
			"metered": {Rate: 1, Burst: 1},
		},
		Now: clock.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s, "test"))
	defer ts.Close()

	post := func(spec job.Spec) *http.Response {
		t.Helper()
		body, _ := json.Marshal(spec)
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	spec := job.Spec{Kernel: "gauss", Params: job.Params{N: 32}, Procs: 2, Scheduler: "gss"}
	resp := post(spec)
	if resp.StatusCode != 200 {
		t.Fatalf("POST /jobs = %d", resp.StatusCode)
	}
	var jr jobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if jr.Scheduler != "GSS" || jr.Shard != "GSS×2" || jr.Phases != 31 || jr.Checksum == 0 {
		t.Fatalf("job response = %+v", jr)
	}

	// Same job again: the checksum is reproducible across the wire.
	resp = post(spec)
	var jr2 jobResponse
	json.NewDecoder(resp.Body).Decode(&jr2)
	resp.Body.Close()
	if jr2.Checksum != jr.Checksum {
		t.Fatalf("checksums differ across identical jobs: %v vs %v", jr.Checksum, jr2.Checksum)
	}

	// Over quota: 429 with a whole-seconds Retry-After header.
	if resp := post(tinySpec("metered")); resp.StatusCode != 200 {
		t.Fatalf("metered burst = %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	resp = post(tinySpec("metered"))
	if resp.StatusCode != 429 {
		t.Fatalf("over-quota POST = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	var er errorResponse
	json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if er.Reason != "quota" || er.RetryAfterSecs <= 0 {
		t.Fatalf("shed body = %+v", er)
	}

	// Invalid spec: 400 naming the offending field.
	resp = post(job.Spec{Kernel: "spin", Procs: -1})
	if resp.StatusCode != 400 {
		t.Fatalf("invalid spec POST = %d, want 400", resp.StatusCode)
	}
	json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if !strings.Contains(er.Error, "jobspec.procs") {
		t.Fatalf("400 body does not name the field: %+v", er)
	}

	for _, path := range []string{"/kernels", "/status", "/tenants", "/shards", "/healthz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp, err = http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("index content type %q", ct)
	}
	resp.Body.Close()
}

// TestHealthzAfterClose: once the server closes, /healthz answers 503
// with its JSON body labelled application/json.
func TestHealthzAfterClose(t *testing.T) {
	s, err := New(Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	rec := httptest.NewRecorder()
	NewHandler(s, "test").ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz after Close = %d, want 503", rec.Code)
	}
	if ct := rec.Result().Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/healthz after Close: content type %q, want application/json", ct)
	}
	var body map[string]bool
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["ok"] {
		t.Errorf("/healthz after Close: body %q (%v), want {\"ok\": false}", rec.Body.String(), err)
	}
}

// TestJobsBodyLimits: /jobs reads at most maxJobBody bytes, refusing a
// larger body with 413 and a JSON error naming the limit, and refuses
// data after the spec object with 400.
func TestJobsBodyLimits(t *testing.T) {
	s, err := New(Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s, "test"))
	defer ts.Close()
	spec, err := json.Marshal(tinySpec("limits"))
	if err != nil {
		t.Fatal(err)
	}
	post := func(body []byte) (int, errorResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er errorResponse
		if resp.StatusCode != http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatalf("status %d with a non-JSON body: %v", resp.StatusCode, err)
			}
		}
		return resp.StatusCode, er
	}

	// Padding the spec with trailing whitespace keeps it valid, so the
	// size alone decides: at the limit it runs, one byte over it is
	// refused.
	pad := func(n int) []byte {
		return append(append([]byte{}, spec...), bytes.Repeat([]byte(" "), n-len(spec))...)
	}
	if code, er := post(pad(maxJobBody)); code != http.StatusOK {
		t.Fatalf("spec padded to the %d-byte limit = %d %+v, want 200", maxJobBody, code, er)
	}
	code, er := post(pad(maxJobBody + 1))
	if code != http.StatusRequestEntityTooLarge || !strings.Contains(er.Error, "1048576") {
		t.Fatalf("body one byte over the limit = %d %+v, want 413 naming 1048576", code, er)
	}

	for _, trailer := range []string{`{}`, `x`, `,{"kernel":"spin"}`} {
		code, er := post(append(append([]byte{}, spec...), trailer...))
		if code != http.StatusBadRequest || !strings.Contains(er.Error, "decoding spec") {
			t.Errorf("spec followed by %q = %d %+v, want 400 decoding spec", trailer, code, er)
		}
	}
}

// TestEveryJobOneAdmissionOutcome: each posted job reaches exactly one
// admission outcome, whatever happens to it — completed, shed by quota
// or by the full backlog, withdrawn while queued, or cancelled mid-run
// (a job a dispatcher took stays admitted). Per tenant, submitted =
// admitted + shed + rejected = jobs posted.
func TestEveryJobOneAdmissionOutcome(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	plane := livemetrics.New(livemetrics.Options{})
	s, err := New(Options{
		Procs:      2,
		QueueLimit: 1,
		// Tenant a's bucket holds four tokens and, on the frozen
		// clock, never refills.
		Tenants: map[string]TenantConfig{"a": {Rate: 0.001, Burst: 4}},
		Plane:   plane,
		Now:     clock.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	row := func(tenant string) livemetrics.TenantSnapshot {
		if a := plane.Snapshot().Admission; a != nil {
			for _, r := range a.Tenants {
				if r.Tenant == tenant {
					return r
				}
			}
		}
		return livemetrics.TenantSnapshot{Tenant: tenant}
	}
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	submit := func(ctx context.Context, spec job.Spec) <-chan error {
		errc := make(chan error, 1)
		go func() {
			_, err := s.Submit(ctx, spec)
			errc <- err
		}()
		return errc
	}

	// 1. A long job, cancelled once a dispatcher has taken it.
	runCtx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	long := tinySpec("a")
	long.Params = job.Params{N: 65536, Phases: 100000, Work: 64}
	running := submit(runCtx, long)
	waitFor("the long job's admission", func() bool { return row("a").Admitted == 1 })

	// 2. A job queued behind it, later withdrawn.
	queueCtx, withdraw := context.WithCancel(context.Background())
	defer withdraw()
	queued := submit(queueCtx, tinySpec("a"))
	waitFor("the second job to queue", func() bool { return s.Status().Queued == 1 })

	// 3. The backlog (limit 1) is full: shed.
	var shed *ShedError
	if _, err := s.Submit(context.Background(), tinySpec("a")); !errors.As(err, &shed) || shed.Reason != "backlog" {
		t.Fatalf("third job: err = %v, want a backlog shed", err)
	}
	// The withdrawn job frees its backlog slot as its Submit returns.
	withdraw()
	if err := <-queued; !errors.Is(err, context.Canceled) {
		t.Fatalf("withdrawn job: err = %v, want context.Canceled", err)
	}
	if q := s.Status().Queued; q != 0 {
		t.Fatalf("the withdrawn job still holds a backlog slot: %d queued", q)
	}
	// Tenant b (no quota) posts while the long job still runs: queued,
	// not shed.
	queuedB := submit(context.Background(), tinySpec("b"))
	waitFor("tenant b's job to queue", func() bool { return s.Status().Queued == 1 })
	select {
	case err := <-queuedB:
		t.Fatalf("tenant b's job returned while the long job runs: %v", err)
	default:
	}
	cancelRun()
	if err := <-running; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled job: err = %v, want context.Canceled", err)
	}
	if err := <-queuedB; err != nil {
		t.Fatalf("tenant b: %v", err)
	}

	// 4. The last token runs a job to completion; 5. the next sheds.
	if _, err := s.Submit(context.Background(), tinySpec("a")); err != nil {
		t.Fatalf("fourth job: %v", err)
	}
	if _, err := s.Submit(context.Background(), tinySpec("a")); !errors.As(err, &shed) || shed.Reason != "quota" {
		t.Fatalf("fifth job: err = %v, want a quota shed", err)
	}

	for _, want := range []livemetrics.TenantSnapshot{
		{Tenant: "a", Submitted: 5, Admitted: 2, Shed: 2, Rejected: 1, Completed: 1},
		{Tenant: "b", Submitted: 1, Admitted: 1, Completed: 1},
	} {
		got := row(want.Tenant)
		if got != want {
			t.Errorf("tenant %s: %+v, want %+v", want.Tenant, got, want)
		}
		if got.Submitted != got.Admitted+got.Shed+got.Rejected {
			t.Errorf("tenant %s: submitted %d != admitted %d + shed %d + rejected %d",
				want.Tenant, got.Submitted, got.Admitted, got.Shed, got.Rejected)
		}
	}
}

// TestConcurrentWithdrawals: submitters withdraw queued and running
// jobs while the dispatcher pops the queue. Once every Submit has
// returned, no withdrawn entry still counts toward the backlog, and
// every job reached exactly one admission outcome.
func TestConcurrentWithdrawals(t *testing.T) {
	const jobs = 48
	plane := livemetrics.New(livemetrics.Options{})
	s, err := New(Options{Procs: 2, QueueLimit: jobs, Plane: plane})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if i%3 != 0 { // two in three are withdrawn, some queued, some running
				time.AfterFunc(time.Duration(i)*20*time.Microsecond, cancel)
			}
			spec := tinySpec("a")
			spec.Params.Phases = 20
			_, _ = s.Submit(ctx, spec) // each outcome is tallied below
		}(i)
	}
	wg.Wait()
	if q := s.Status().Queued; q != 0 {
		t.Fatalf("%d entries left in the backlog after every Submit returned", q)
	}
	row := plane.Snapshot().Admission.Tenants[0]
	if row.Submitted != jobs || row.Submitted != row.Admitted+row.Shed+row.Rejected {
		t.Fatalf("tally %+v, want %d submitted = admitted + shed + rejected", row, jobs)
	}
}
