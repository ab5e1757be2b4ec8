package daemon

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/promtext"
	"repro/internal/runtimeobs"
	"repro/internal/slo"
	"repro/internal/watchdog"
)

// testFlags are the shared flags at their defaults, with a watchdog
// tick long enough that no detector fires during a test.
func testFlags(bundles string) Flags {
	return Flags{Addr: "localhost:0", Window: 10 * time.Second, Flight: 256, Bundles: bundles, WatchdogTick: time.Hour}
}

// startStack runs a stack armed with the serving objectives and rules
// only, so the routes provably serve what the caller passed rather
// than the stock sets.
func startStack(t *testing.T, bundles string) *httptest.Server {
	t.Helper()
	st, err := Start("daemon-test", "test", testFlags(bundles), slo.ServingObjectives(), watchdog.ServingRules())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(st.Handler(nil))
	t.Cleanup(func() {
		srv.Close()
		st.Close()
	})
	return srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// names decodes a JSON object's list field into its sorted "name"s.
func names(t *testing.T, body, field string) []string {
	t.Helper()
	var doc map[string]json.RawMessage
	var list []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("decode: %v\n%s", err, body)
	}
	if err := json.Unmarshal(doc[field], &list); err != nil {
		t.Fatalf("decode %s: %v\n%s", field, err, body)
	}
	var out []string
	for _, e := range list {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}

func TestStackServesWhatItWasGiven(t *testing.T) {
	srv := startStack(t, "")

	var wantObj, wantRules []string
	for _, o := range slo.ServingObjectives() {
		wantObj = append(wantObj, o.Name)
	}
	for _, r := range watchdog.ServingRules() {
		wantRules = append(wantRules, r.Name)
	}
	sort.Strings(wantObj)
	sort.Strings(wantRules)

	code, body := get(t, srv.URL+"/slo?format=json")
	if got := names(t, body, "objectives"); code != 200 || strings.Join(got, ",") != strings.Join(wantObj, ",") {
		t.Errorf("/slo: status %d, objectives %v, want %v", code, got, wantObj)
	}
	code, body = get(t, srv.URL+"/watchdog")
	if got := names(t, body, "rules"); code != 200 || strings.Join(got, ",") != strings.Join(wantRules, ",") {
		t.Errorf("/watchdog: status %d, rules %v, want %v", code, got, wantRules)
	}
	code, body = get(t, srv.URL+"/runtime")
	var rt runtimeobs.Snapshot
	if err := json.Unmarshal([]byte(body), &rt); code != 200 || err != nil || rt.Goroutines < 1 {
		t.Errorf("/runtime: status %d, err %v, goroutines %d", code, err, rt.Goroutines)
	}
	// The plane's own endpoints mount beside the shared ones.
	if code, _ := get(t, srv.URL+"/metrics"); code != 200 {
		t.Errorf("/metrics: status %d", code)
	}
}

func TestBundleRoutes(t *testing.T) {
	off := startStack(t, "")
	for _, path := range []string{"/bundles", "/bundle?id=x"} {
		code, body := get(t, off.URL+path)
		if code != http.StatusNotFound || !strings.Contains(body, "start daemon-test with -bundles") {
			t.Errorf("%s with capture off: status %d, body %q", path, code, body)
		}
	}
	on := startStack(t, t.TempDir())
	if code, body := get(t, on.URL+"/bundles"); code != 200 || strings.TrimSpace(body) != "[]" {
		t.Errorf("/bundles on an empty store: status %d, body %q", code, body)
	}
	if code, _ := get(t, on.URL+"/bundle?id=missing"); code != http.StatusNotFound {
		t.Errorf("/bundle for an unknown id: status %d", code)
	}
}

// TestCombinedProm: one scrape carries all four writers' series, and
// every family is declared once (promtext.Parse rejects repeats).
func TestCombinedProm(t *testing.T) {
	srv := startStack(t, "")
	code, body := get(t, srv.URL+"/metrics.prom")
	if code != 200 {
		t.Fatalf("/metrics.prom: status %d", code)
	}
	if _, err := promtext.Parse(strings.NewReader(body)); err != nil {
		t.Fatalf("combined scrape does not parse: %v", err)
	}
	types := map[string]int{}
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]]++
		}
	}
	for fam, n := range types {
		if n != 1 {
			t.Errorf("# TYPE %s declared %d times", fam, n)
		}
	}
	for _, want := range []string{"loopsched_submissions_total", "loopsched_slo_", "loopsched_watchdog_ticks_total", "loopsched_runtime_goroutines"} {
		if !strings.Contains(body, "\n"+want) {
			t.Errorf("combined scrape lacks %s series", want)
		}
	}
}

func TestServeDrainsThenStops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	drained := false
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, "localhost:0", http.NotFoundHandler(), func() { drained = true }) }()
	cancel()
	if err := <-done; err != nil {
		t.Errorf("Serve after cancel = %v, want nil", err)
	}
	if !drained {
		t.Error("Serve returned without running the drain hook")
	}
}

func TestServeListenFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	drained := false
	err = Serve(context.Background(), ln.Addr().String(), http.NotFoundHandler(), func() { drained = true })
	if err == nil || drained {
		t.Errorf("Serve on a taken address = %v (drained %v), want a listen error without draining", err, drained)
	}
}

func TestContextEndsAfterDuration(t *testing.T) {
	f := testFlags("")
	f.Duration = 10 * time.Millisecond
	ctx, cancel := f.Context()
	defer cancel()
	select {
	case <-ctx.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("-duration context never ended")
	}
}

// TestValidateRejects: values the stack would otherwise silently
// replace are refused, naming their flag.
func TestValidateRejects(t *testing.T) {
	if err := testFlags("").Validate(); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	for _, tc := range []struct {
		flag string
		mut  func(*Flags)
	}{
		{"-addr", func(f *Flags) { f.Addr = "8077" }},
		{"-window", func(f *Flags) { f.Window = 0 }},
		{"-window", func(f *Flags) { f.Window = -5 * time.Second }},
		{"-flight", func(f *Flags) { f.Flight = 0 }},
		{"-duration", func(f *Flags) { f.Duration = -time.Second }},
		{"-watchdog-tick", func(f *Flags) { f.WatchdogTick = 0 }},
	} {
		f := testFlags("")
		tc.mut(&f)
		if err := f.Validate(); err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") {
			t.Errorf("%+v: Validate = %v, want an error naming %s", f, err, tc.flag)
		}
	}
}
