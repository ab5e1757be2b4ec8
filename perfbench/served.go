package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/job"
	"repro/internal/serve"
	"repro/serveclient"
)

// serveProcs is the served shard's worker count.
const serveProcs = 2

// serveTenants are the two unmetered tenants, one client goroutine
// each; weights 1 and 3 exercise the weighted fair queue.
var serveTenants = [...]struct {
	name   string
	weight float64
}{{"light", 1}, {"heavy", 3}}

// serveWarmups is the number of jobs each set-up submits before
// timing starts.
const serveWarmups = 1500

// opHeader carries a traced op's ID from the client transport to the
// handler wrapper, so both sides' spans share it.
const opHeader = "X-Perfbench-Op"

type opIDKey struct{}

// serveInst is serve-closed: an in-process serve.Server behind
// serve.NewHandler on a loopback listener, driven by one closed-loop
// serveclient goroutine per tenant submitting small spin jobs, so
// JSON/HTTP, admission and the shard hand-off do most of the work.
// The job is N=2048 rather than 512: about 1% of ops wait up to 4 ms
// for a wake-up, and with fewer slow ops p99 fell where that tail is
// flat and swung between 1.1 and 2.4 ms from run to run.
type serveInst struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	tr     *http.Transport
	cl     *serveclient.Client
	timer  *handlerTimer
	specs  [len(serveTenants)]job.Spec
	ref    float64
	iters  int64
	conns  atomic.Int64

	// Per-client counts over traced ops.
	ops, shed [len(serveTenants)]int64
}

func setupServe(int64) (instance, error) {
	tenants := make(map[string]serve.TenantConfig, len(serveTenants))
	for _, t := range serveTenants {
		tenants[t.name] = serve.TenantConfig{Weight: t.weight}
	}
	srv, err := serve.New(serve.Options{Procs: serveProcs, Tenants: tenants})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &serveInst{srv: srv, served: make(chan error, 1)}
	s.timer = &handlerTimer{next: serve.NewHandler(srv, "perfbench"), spans: make(map[int64][2]int64)}
	s.hs = &http.Server{Handler: s.timer, ConnState: func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			s.conns.Add(1)
		}
	}}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.tr = &http.Transport{MaxConnsPerHost: len(serveTenants), MaxIdleConnsPerHost: len(serveTenants), DisableCompression: true}
	s.cl = serveclient.New("http://"+ln.Addr().String(), &http.Client{Transport: tagTransport{s.tr}})

	for c, t := range serveTenants {
		s.specs[c] = job.Spec{Kernel: "spin", Params: job.Params{N: 2048, Phases: 1, Work: 8}, Scheduler: "afs", Procs: serveProcs, Tenant: t.name}
	}
	r, err := job.Build(s.specs[0])
	if err != nil {
		s.close()
		return nil, err
	}
	s.iters = runSerial(r)
	s.ref = r.Checksum()
	if err := s.warm(); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

// warm runs the closed loop untimed, both clients at once, so
// connections, shards and the worker caches are up before timing.
func (s *serveInst) warm() error {
	var wg sync.WaitGroup
	errs := make([]error, len(serveTenants))
	for c := range serveTenants {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < serveWarmups/len(serveTenants) && errs[c] == nil; i++ {
				errs[c] = s.op(c, &opCtx{})
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (s *serveInst) clients() int { return len(serveTenants) }

func (s *serveInst) op(c int, o *opCtx) error {
	ctx := context.Background()
	if o.traced() {
		ctx = context.WithValue(ctx, opIDKey{}, o.id)
		s.ops[c]++
	}
	t0 := now()
	res, err := s.cl.Submit(ctx, s.specs[c])
	t1 := now()
	if err != nil {
		var shed *serveclient.ShedError
		if o.traced() && errors.As(err, &shed) {
			s.shed[c]++
		}
		return err
	}
	bad := res.Checksum != s.ref || res.Iterations != s.iters || res.Tenant != s.specs[c].Tenant
	t2 := now()
	if o.traced() {
		o.span(lClient, t0, t1)
		if h, ok := s.timer.take(o.id); ok {
			o.span(lHandler, h[0], h[1])
		}
		o.spanDur(lWait, res.WaitNS)
		o.spanDur(lExec, res.ElapsedNS)
		o.span(lCheck, t1, t2)
	}
	if bad {
		return fmt.Errorf("%w: served checksum %v over %d iterations for %q, want %v over %d for %q",
			errWrongOutput, res.Checksum, res.Iterations, res.Tenant, s.ref, s.iters, s.specs[c].Tenant)
	}
	return nil
}

func (s *serveInst) layerMetrics(t *traceSet) map[string]float64 {
	m := map[string]float64{
		"serve.handler_ms_p50":    t.durQ(lHandler, 0.50),
		"serve.handler_ms_p99":    t.durQ(lHandler, 0.99),
		"serve.admit_wait_ms_p50": t.durQ(lWait, 0.50),
		"serve.admit_wait_ms_p99": t.durQ(lWait, 0.99),
		"serve.other_ms_p50":      t.selfQ(lHandler, 0.50),
		"core.exec_ms_p50":        t.durQ(lExec, 0.50),
		"http.client_ms_p50":      t.selfQ(lClient, 0.50),
	}
	var ops, shed int64
	for c := range s.ops {
		ops += s.ops[c]
		shed += s.shed[c]
	}
	if ops > 0 {
		m["serve.shed_frac"] = float64(shed) / float64(ops)
	}
	return m
}

func (s *serveInst) close() {
	s.hs.Close()
	<-s.served
	s.tr.CloseIdleConnections()
	s.srv.Close()
	if n := s.conns.Load(); n > int64(len(serveTenants)) {
		fmt.Printf("serve-closed: clients opened %d connections, more than one per client\n", n)
	}
}

// handlerTimer wraps the service's handler and records, for requests
// that carry an op ID, when the handler started and returned.
type handlerTimer struct {
	next  http.Handler
	mu    sync.Mutex
	spans map[int64][2]int64
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tag := r.Header.Get(opHeader)
	if tag == "" {
		h.next.ServeHTTP(w, r)
		return
	}
	start := now()
	h.next.ServeHTTP(w, r)
	end := now()
	id, err := strconv.ParseInt(tag, 10, 64)
	if err != nil {
		return
	}
	h.mu.Lock()
	h.spans[id] = [2]int64{start, end}
	h.mu.Unlock()
}

// take returns and forgets op id's handler span. The handler stores it
// before the response is flushed, so it is there once Submit returns.
func (h *handlerTimer) take(id int64) ([2]int64, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	sp, ok := h.spans[id]
	delete(h.spans, id)
	return sp, ok
}

// tagTransport stamps traced requests with their op ID.
type tagTransport struct{ base http.RoundTripper }

func (t tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(opIDKey{}).(int64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(opHeader, strconv.FormatInt(id, 10))
	}
	return t.base.RoundTrip(r)
}
