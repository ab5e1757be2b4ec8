package livemetrics_test

// Tests for the serving-layer admission instruments: per-tenant
// counters, the admission-wait histogram, snapshot shape (absent until
// a frontend reports), and the Prometheus exposition families.

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/livemetrics"
	"repro/internal/promtext"
)

func TestAdmissionAbsentUntilObserved(t *testing.T) {
	p := livemetrics.New(livemetrics.Options{})
	if s := p.Snapshot(); s.Admission != nil {
		t.Fatalf("Admission block present before any admission: %+v", s.Admission)
	}
	var buf bytes.Buffer
	if err := livemetrics.WriteProm(&buf, p.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "loopsched_admission") {
		t.Fatal("admission families exposed before any admission decision")
	}
}

func TestAdmissionCountersAndProm(t *testing.T) {
	p := livemetrics.New(livemetrics.Options{})

	for i := 0; i < 5; i++ {
		p.ObserveAdmission("team-a", time.Duration(i+1)*time.Millisecond, livemetrics.AdmitAdmitted)
	}
	p.ObserveTenantCompletion("team-a")
	p.ObserveTenantCompletion("team-a")
	for i := 0; i < 3; i++ {
		p.ObserveAdmission("team-b", 0, livemetrics.AdmitShed)
	}
	p.ObserveAdmission("team-b", time.Millisecond, livemetrics.AdmitAdmitted)
	p.ObserveAdmission("", 0, livemetrics.AdmitRejected)

	s := p.Snapshot()
	a := s.Admission
	if a == nil {
		t.Fatal("Admission block missing after decisions")
	}
	if a.Admitted != 6 || a.Shed != 3 || a.Rejected != 1 {
		t.Fatalf("totals %+v, want admitted=6 shed=3 rejected=1", a)
	}
	if a.Wait.Count != 6 || a.Wait.P99 <= 0 {
		t.Fatalf("wait quantiles %+v: only admitted jobs should feed the histogram", a.Wait)
	}
	if len(a.Tenants) != 3 {
		t.Fatalf("tenant rows %+v, want default, team-a, team-b (sorted)", a.Tenants)
	}
	if a.Tenants[0].Tenant != "default" || a.Tenants[1].Tenant != "team-a" || a.Tenants[2].Tenant != "team-b" {
		t.Fatalf("tenant order %+v", a.Tenants)
	}
	ta, tb := a.Tenants[1], a.Tenants[2]
	if ta.Submitted != 5 || ta.Admitted != 5 || ta.Completed != 2 || ta.Shed != 0 {
		t.Fatalf("team-a row %+v", ta)
	}
	if tb.Submitted != 4 || tb.Admitted != 1 || tb.Shed != 3 {
		t.Fatalf("team-b row %+v", tb)
	}

	var buf bytes.Buffer
	if err := livemetrics.WriteProm(&buf, s); err != nil {
		t.Fatal(err)
	}
	exp, err := promtext.Parse(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, buf.String())
	}
	if v, err := exp.Value("loopsched_admission_shed_total"); err != nil || v != 3 {
		t.Fatalf("shed total = %v, %v", v, err)
	}
	if v, err := exp.Value("loopsched_tenant_shed_total", "tenant", "team-b"); err != nil || v != 3 {
		t.Fatalf("team-b shed series = %v, %v", v, err)
	}
	if v, err := exp.Value("loopsched_tenant_completed_total", "tenant", "team-a"); err != nil || v != 2 {
		t.Fatalf("team-a completed series = %v, %v", v, err)
	}
	if got := len(exp.ByName("loopsched_tenant_submitted_total")); got != 3 {
		t.Fatalf("tenant submitted series = %d, want 3", got)
	}
	if got := len(exp.ByName("loopsched_admission_wait_ns")); got != 3 {
		t.Fatalf("admission wait quantile series = %d, want 3", got)
	}
}
