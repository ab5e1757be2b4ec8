package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// layerID names a span's layer. Every op is a root span ("op", or
// "kernels.serial" for the reference runs); each layer has one fixed
// parent, so a span is identified by its op ID and layer.
type layerID uint8

const (
	lOp layerID = iota
	lBuild
	lSubmit
	lCheck
	lSerial
	lClient
	lHandler
	lWait
	lExec
	lSimBuild
	lSimGauss
	lSimSOR
	lSimTC
	nLayers
)

const noParent = nLayers

var layerInfo = [nLayers]struct {
	name   string
	parent layerID
}{
	lOp:       {"op", noParent},
	lBuild:    {"job.build", lOp},
	lSubmit:   {"pool.submit", lOp},
	lCheck:    {"check", lOp},
	lSerial:   {"kernels.serial", noParent},
	lClient:   {"serveclient.submit", lOp},
	lHandler:  {"serve.handler", lClient},
	lWait:     {"serve.admit_wait", lHandler},
	lExec:     {"core.exec", lHandler},
	lSimBuild: {"sim.build", lOp},
	lSimGauss: {"sim.run.gauss", lOp},
	lSimSOR:   {"sim.run.sor", lOp},
	lSimTC:    {"sim.run.tc-skew", lOp},
}

// epoch is the zero of every span timestamp in the process.
var epoch = time.Now()

// now is the monotonic time since epoch in nanoseconds.
func now() int64 { return int64(time.Since(epoch)) }

// span is one timed layer call of one op. start is -1 for a span
// known only by its duration (a layer that reports its own time, such
// as the server's admission wait).
type span struct {
	op    int64
	start int64
	dur   int64
	layer layerID
}

// maxSpans bounds one recorder's memory; spans past it are counted,
// not kept.
const maxSpans = 1 << 20

// recorder keeps one client goroutine's spans in memory.
type recorder struct {
	spans   []span
	dropped int64
}

func (r *recorder) add(s span) {
	if len(r.spans) >= maxSpans {
		r.dropped++
		return
	}
	r.spans = append(r.spans, s)
}

// opCtx is one op's identity and, when the op is traced, the recorder
// its spans go to.
type opCtx struct {
	id  int64
	rec *recorder
}

func (o *opCtx) traced() bool { return o.rec != nil }

// span records layer l over [start, end) when the op is traced.
func (o *opCtx) span(l layerID, start, end int64) {
	if o.rec != nil {
		o.rec.add(span{op: o.id, start: start, dur: end - start, layer: l})
	}
}

// spanDur records a layer known only by its duration.
func (o *opCtx) spanDur(l layerID, dur int64) {
	if o.rec != nil {
		o.rec.add(span{op: o.id, start: -1, dur: dur, layer: l})
	}
}

// traceSet is every span of a traced run, grouped by op, with each
// span's self time: its duration minus its children's.
type traceSet struct {
	spans []span
	self  []int64
	// durs and selfs hold per-layer samples in milliseconds.
	durs, selfs [nLayers][]float64
	// rootNS and unattributedNS sum the op roots' durations and self
	// times; violations counts spans whose children overrun them.
	rootNS, unattributedNS int64
	violations             int64
	dropped                int64
}

func newTraceSet(recs []*recorder) *traceSet {
	t := &traceSet{}
	for _, r := range recs {
		t.spans = append(t.spans, r.spans...)
		t.dropped += r.dropped
	}
	sort.Slice(t.spans, func(i, j int) bool {
		a, b := t.spans[i], t.spans[j]
		if a.op != b.op {
			return a.op < b.op
		}
		return a.layer < b.layer
	})
	t.self = make([]int64, len(t.spans))
	for lo := 0; lo < len(t.spans); {
		hi := lo
		for hi < len(t.spans) && t.spans[hi].op == t.spans[lo].op {
			hi++
		}
		t.account(lo, hi)
		lo = hi
	}
	return t
}

// account computes self times for one op's spans t.spans[lo:hi] and
// checks that every child lies inside its parent.
func (t *traceSet) account(lo, hi int) {
	var at [nLayers]int
	for i := range at {
		at[i] = -1
	}
	for i := lo; i < hi; i++ {
		at[t.spans[i].layer] = i
	}
	for i := lo; i < hi; i++ {
		t.self[i] = t.spans[i].dur
	}
	for i := lo; i < hi; i++ {
		s := t.spans[i]
		p := layerInfo[s.layer].parent
		if p == noParent {
			continue
		}
		pi := at[p]
		if pi < 0 {
			t.violations++ // orphan: its parent was never recorded
			continue
		}
		t.self[pi] -= s.dur
		ps := t.spans[pi]
		if s.start >= 0 && ps.start >= 0 && (s.start < ps.start || s.start+s.dur > ps.start+ps.dur) {
			t.violations++
		}
	}
	for i := lo; i < hi; i++ {
		s := t.spans[i]
		if t.self[i] < 0 {
			t.violations++
		}
		t.durs[s.layer] = append(t.durs[s.layer], float64(s.dur)/1e6)
		t.selfs[s.layer] = append(t.selfs[s.layer], float64(t.self[i])/1e6)
		if s.layer == lOp {
			t.rootNS += s.dur
			t.unattributedNS += t.self[i]
		}
	}
}

// durQ and selfQ are the q-quantiles of a layer's durations and self
// times in milliseconds (0 when the layer never ran).
func (t *traceSet) durQ(l layerID, q float64) float64  { return quantile(t.durs[l], q) }
func (t *traceSet) selfQ(l layerID, q float64) float64 { return quantile(t.selfs[l], q) }

// unattributedFrac is the share of op time no layer span covers.
func (t *traceSet) unattributedFrac() float64 {
	if t.rootNS == 0 {
		return 0
	}
	return float64(t.unattributedNS) / float64(t.rootNS)
}

// write stores the spans as gzipped TSV: one row per span with its
// op ID, layer, parent layer, start (ns since process start, -1 when
// only the duration is known), duration and self time.
func (t *traceSet) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "op\tlayer\tparent\tstart_ns\tdur_ns\tself_ns")
	for i, s := range t.spans {
		parent := "-"
		if p := layerInfo[s.layer].parent; p != noParent {
			parent = layerInfo[p].name
		}
		fmt.Fprintf(bw, "%d\t%s\t%s\t%d\t%d\t%d\n", s.op, layerInfo[s.layer].name, parent, s.start, s.dur, t.self[i])
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics; it sorts xs in place and returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}
