// Package serveclient is the Go client for a loopserved instance: it
// submits serializable job specs (repro.JobSpec) over HTTP/JSON and
// maps the service's admission verdicts back onto typed errors — a
// *ShedError carrying the server's Retry-After for 429, a
// *RemoteError with status and message for everything else — so
// callers can implement quota-respecting backoff without parsing
// response bodies.
//
// The wire contract is internal/serve.NewHandler; kernels are named
// server-side registrations (loop bodies never cross the wire), so a
// client submits {kernel, params, scheduler, procs, tenant} and gets
// back stats and a reproducible checksum.
package serveclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
)

// Client talks to one loopserved base URL. The zero value is not
// usable; create with New.
type Client struct {
	base string
	hc   *http.Client
}

// New creates a client for a server base URL (e.g.
// "http://localhost:8093"). hc nil means http.DefaultClient.
func New(baseURL string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: hc}
}

// JobResult is one completed submission as reported by the server.
type JobResult struct {
	Tenant        string  `json:"tenant"`
	Scheduler     string  `json:"scheduler"`
	Procs         int     `json:"procs"`
	Shard         string  `json:"shard"`
	WaitNS        int64   `json:"wait_ns"`
	ElapsedNS     int64   `json:"elapsed_ns"`
	Phases        int     `json:"phases"`
	Iterations    int64   `json:"iterations"`
	Steals        int64   `json:"steals"`
	MigratedIters int64   `json:"migrated_iters"`
	Checksum      float64 `json:"checksum"`
}

// KernelInfo is one registered kernel.
type KernelInfo struct {
	Name        string          `json:"name"`
	Description string          `json:"description"`
	Defaults    repro.JobParams `json:"defaults"`
}

// TenantStatus mirrors the server's per-tenant admission state.
type TenantStatus struct {
	Tenant string  `json:"tenant"`
	Weight float64 `json:"weight"`
	Rate   float64 `json:"rate_per_sec"`
	Burst  float64 `json:"burst"`
	Tokens float64 `json:"tokens"`
}

// ShardStatus mirrors one executor shard.
type ShardStatus struct {
	Shard       string `json:"shard"`
	Scheduler   string `json:"scheduler"`
	Procs       int    `json:"procs"`
	Submissions int64  `json:"submissions"`
}

// Status mirrors the server's /status snapshot.
type Status struct {
	Queued     int            `json:"queued"`
	QueueLimit int            `json:"queue_limit"`
	Dispatched int64          `json:"dispatched"`
	Closed     bool           `json:"closed"`
	Tenants    []TenantStatus `json:"tenants,omitempty"`
	Shards     []ShardStatus  `json:"shards,omitempty"`
}

// ShedError is a 429: the server refused the job under overload
// protection and the client should wait RetryAfter before resubmitting.
type ShedError struct {
	// Reason is the server's verdict: "quota" or "backlog".
	Reason     string
	RetryAfter time.Duration
	Message    string
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("serveclient: shed (%s), retry after %v: %s", e.Reason, e.RetryAfter, e.Message)
}

// RemoteError is any other non-2xx verdict: 400 invalid spec, 413
// spec body over the server's 1 MiB cap, 503 server draining, 500
// kernel panic.
type RemoteError struct {
	Status  int
	Message string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("serveclient: server returned %d: %s", e.Status, e.Message)
}

// errorBody is the server's JSON error shape.
type errorBody struct {
	Error          string  `json:"error"`
	Reason         string  `json:"reason"`
	RetryAfterSecs float64 `json:"retry_after_seconds"`
}

// Submit posts one job and blocks until the server reports completion
// or a verdict. Overload returns *ShedError; any other refusal returns
// *RemoteError.
func (c *Client) Submit(ctx context.Context, spec repro.JobSpec) (JobResult, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return JobResult{}, fmt.Errorf("serveclient: encoding spec: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return JobResult{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return JobResult{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return JobResult{}, decodeError(resp)
	}
	rb := replyBufs.Get().(*replyBuf)
	defer putReplyBuf(rb)
	if _, err := rb.buf.ReadFrom(resp.Body); err != nil {
		return JobResult{}, fmt.Errorf("serveclient: reading result: %w", err)
	}
	rb.jr = JobResult{}
	if err := json.Unmarshal(rb.buf.Bytes(), &rb.jr); err != nil {
		return JobResult{}, fmt.Errorf("serveclient: decoding result: %w", err)
	}
	return rb.jr, nil
}

// maxPooledReply is the largest buffer replyBufs keeps.
const maxPooledReply = 64 << 10

// replyBuf is Submit's scratch, pooled across calls: the reply's bytes
// and its decoded value, so neither is allocated per call.
type replyBuf struct {
	buf bytes.Buffer
	jr  JobResult
}

var replyBufs = sync.Pool{New: func() any { return new(replyBuf) }}

func putReplyBuf(rb *replyBuf) {
	if rb.buf.Cap() > maxPooledReply {
		return
	}
	rb.buf.Reset()
	replyBufs.Put(rb)
}

// Kernels lists the server's registered kernels.
func (c *Client) Kernels(ctx context.Context) ([]KernelInfo, error) {
	var out []KernelInfo
	return out, c.get(ctx, "/kernels", &out)
}

// Status fetches the server's admission snapshot.
func (c *Client) Status(ctx context.Context) (Status, error) {
	var out Status
	return out, c.get(ctx, "/status", &out)
}

// Healthz reports nil while the server is accepting jobs.
func (c *Client) Healthz(ctx context.Context) error {
	return c.get(ctx, "/healthz", &struct {
		OK bool `json:"ok"`
	}{})
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// decodeError maps a non-200 response to the typed error taxonomy.
// The Retry-After header is authoritative for backoff when present;
// the JSON body's fractional seconds refine it.
func decodeError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var eb errorBody
	msg := strings.TrimSpace(string(raw))
	if json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
		msg = eb.Error
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		retry := time.Duration(eb.RetryAfterSecs * float64(time.Second))
		if secs, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After"))); err == nil && retry <= 0 {
			retry = time.Duration(secs) * time.Second
		}
		return &ShedError{Reason: eb.Reason, RetryAfter: retry, Message: msg}
	}
	return &RemoteError{Status: resp.StatusCode, Message: msg}
}
