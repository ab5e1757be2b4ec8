package serveclient_test

// End-to-end contract test: a real Server behind its real handler,
// driven through the public client — the same composition loopserved
// serves and the CI smoke test scrapes.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
	"repro/serveclient"
)

func TestClientRoundTrip(t *testing.T) {
	srv, err := repro.NewServer(repro.ServerOptions{
		Procs: 2,
		Tenants: map[string]repro.ServerTenant{
			"metered": {Rate: 0.5, Burst: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(repro.ServeHandler(srv, "client-test"))
	defer ts.Close()
	c := serveclient.New(ts.URL, nil)
	ctx := context.Background()

	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	kernels, err := c.Kernels(ctx)
	if err != nil || len(kernels) == 0 {
		t.Fatalf("kernels = %d, %v", len(kernels), err)
	}

	spec := repro.JobSpec{
		Kernel:    "gauss",
		Params:    repro.JobParams{N: 32},
		Scheduler: "gss",
		Procs:     2,
	}
	res, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if res.Phases != 31 || res.Checksum == 0 || res.Shard == "" {
		t.Fatalf("result = %+v", res)
	}
	res2, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Checksum != res.Checksum {
		t.Fatalf("checksum not reproducible over the wire: %v vs %v", res.Checksum, res2.Checksum)
	}

	// Over quota: the typed shed error carries the server's backoff.
	metered := repro.JobSpec{Kernel: "spin", Params: repro.JobParams{N: 64, Phases: 1, Work: 1}, Procs: 2, Tenant: "metered"}
	if _, err := c.Submit(ctx, metered); err != nil {
		t.Fatalf("metered burst: %v", err)
	}
	_, err = c.Submit(ctx, metered)
	var shed *serveclient.ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("over-quota = %v, want *ShedError", err)
	}
	if shed.Reason != "quota" || shed.RetryAfter <= 0 {
		t.Fatalf("shed = %+v", shed)
	}

	// Invalid spec: a RemoteError naming the offending field.
	_, err = c.Submit(ctx, repro.JobSpec{Kernel: "spin", Procs: -1})
	var rem *serveclient.RemoteError
	if !errors.As(err, &rem) || rem.Status != 400 {
		t.Fatalf("invalid spec = %v, want *RemoteError 400", err)
	}

	// A spec over the server's 1 MiB body cap: a RemoteError with 413.
	// The tenant name pads the encoded spec to one byte past the cap
	// exactly, so the server has read the whole body when it answers.
	big := repro.JobSpec{Kernel: "spin"}
	enc, err := json.Marshal(big)
	if err != nil {
		t.Fatal(err)
	}
	big.Tenant = strings.Repeat("t", 1<<20+1-len(enc)-len(`,"tenant":""`))
	if enc, _ = json.Marshal(big); len(enc) != 1<<20+1 {
		t.Fatalf("padded spec is %d bytes, want %d", len(enc), 1<<20+1)
	}
	_, err = c.Submit(ctx, big)
	if !errors.As(err, &rem) || rem.Status != 413 || !strings.Contains(rem.Message, "1048576") {
		t.Fatalf("oversized spec = %v, want *RemoteError 413 naming the limit", err)
	}

	st, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Dispatched < 3 || len(st.Shards) == 0 {
		t.Fatalf("status = %+v", st)
	}

	srv.Close()
	_, err = c.Submit(ctx, spec)
	if !errors.As(err, &rem) || rem.Status != 503 {
		t.Fatalf("submit after close = %v, want *RemoteError 503", err)
	}
}
