package forensics

import (
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// TestQueueBacklogsHandBuilt checks the derivation's exact figures on
// a two-step record set over a 10-unit window.
func TestQueueBacklogsHandBuilt(t *testing.T) {
	prov := []telemetry.Prov{
		// Step 0 starts at 0: queue 0 holds 6 iterations, queue 1 two.
		{Step: 0, Proc: 0, Owner: 0, Lo: 0, Hi: 4, Start: 0, End: 2},
		{Step: 0, Proc: 1, Owner: 0, Stolen: true, Lo: 4, Hi: 6, Start: 1, End: 3, QueueWait: 1},
		{Step: 0, Proc: 1, Owner: 1, Lo: 6, Hi: 8, Start: 3, End: 4},
		// Step 1 starts at 6 and drains queue 0 at once.
		{Step: 1, Proc: 0, Owner: 0, Lo: 0, Hi: 8, Start: 6, End: 10},
	}
	got := QueueBacklogs(prov)
	want := []QueueBacklog{
		// Queue 0: 2 iterations wait from 0 to 1.
		{Queue: 0, PhaseStart: []int{6, 8}, Max: 8, Mean: 0.2, Nonempty: 0.1},
		// Queue 1: 2 iterations wait from 0 to 3.
		{Queue: 1, PhaseStart: []int{2, 0}, Max: 2, Mean: 0.6, Nonempty: 0.3},
	}
	if len(got) != len(want) {
		t.Fatalf("%d queues, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Queue != w.Queue || !slices.Equal(g.PhaseStart, w.PhaseStart) ||
			g.Max != w.Max || g.Mean != w.Mean || g.Nonempty != w.Nonempty {
			t.Errorf("queue %d: got %+v, want %+v", w.Queue, g, w)
		}
	}
	if QueueBacklogs(nil) != nil {
		t.Error("no records should derive no queues")
	}
}

// TestQueueBacklogsMatchSchedule derives the backlog of real runs
// through core: every AFS queue starts each phase holding exactly its
// sched.StaticBlock, the central queue holds the whole phase, and each
// phase's starting backlogs sum to its N.
func TestQueueBacklogsMatchSchedule(t *testing.T) {
	const p, phases = 4, 3
	n := func(ph int) int { return 1001 + 17*ph }
	for _, algo := range []string{"afs", "gss"} {
		spec, err := sched.ByName(algo)
		if err != nil {
			t.Fatal(err)
		}
		prov := telemetry.NewLog[telemetry.Prov]()
		// Worker 0 starts late, so AFS runs steal from its queue.
		cfg := core.Config{Procs: p, Spec: spec, Observer: telemetry.ObserveProv(prov),
			StartDelay: []time.Duration{2 * time.Millisecond}}
		if _, err := core.Run(cfg, phases, n, func(ph, i int) {}); err != nil {
			t.Fatal(err)
		}
		qs := QueueBacklogs(prov.Records())
		wantQueues := p
		if algo == "gss" {
			wantQueues = 1
		}
		if len(qs) != wantQueues {
			t.Fatalf("%s: %d queues, want %d", algo, len(qs), wantQueues)
		}
		for ph := 0; ph < phases; ph++ {
			sum := 0
			for _, q := range qs {
				want := n(ph)
				if algo == "afs" {
					want = sched.StaticBlock(q.Queue, n(ph), p).Len()
				} else if q.Queue != -1 {
					t.Fatalf("gss: queue %d, want the central queue -1", q.Queue)
				}
				if q.PhaseStart[ph] != want {
					t.Errorf("%s phase %d queue %d: starting backlog %d, want %d",
						algo, ph, q.Queue, q.PhaseStart[ph], want)
				}
				sum += q.PhaseStart[ph]
			}
			if sum != n(ph) {
				t.Errorf("%s phase %d: starting backlogs sum to %d, want %d", algo, ph, sum, n(ph))
			}
		}
		for _, q := range qs {
			if q.Max <= 0 || q.Mean < 0 || q.Nonempty < 0 || q.Nonempty > 1 {
				t.Errorf("%s queue %d: max %d mean %g nonempty %g", algo, q.Queue, q.Max, q.Mean, q.Nonempty)
			}
		}
	}
}
