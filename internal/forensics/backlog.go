package forensics

import (
	"slices"
	"sort"

	"repro/internal/telemetry"
)

// QueueBacklog is one work queue's backlog over a run, derived exactly
// from the run's chunk records: the paper's per-queue imbalance signal
// without a sampler.
type QueueBacklog struct {
	// Queue is the owning queue index (a chunk's Owner); -1 is the
	// central queue of the central-dispenser algorithms.
	Queue int `json:"queue"`
	// PhaseStart[k] is the backlog, in iterations, at the start of the
	// k-th step the records cover (steps ascending).
	PhaseStart []int `json:"phase_start"`
	// Max is the deepest backlog; Mean is the time-weighted mean over
	// the run's window and Nonempty the fraction of that window the
	// queue held work.
	Max      int     `json:"max"`
	Mean     float64 `json:"mean"`
	Nonempty float64 `json:"nonempty"`
}

// QueueBacklogs derives every queue's backlog from a run's chunk
// records. A step's queues fill at the step's start (its earliest
// record's Start − QueueWait) with the iterations of that step's
// records owned by each queue, and a chunk leaves queue Owner at its
// Start, so each iteration waits from its step's start to its chunk's
// Start, and a queue holds work until its step's last chunk from it
// leaves. The window runs from the first step's start to the last
// record's End. Queues come out in index order, the central queue
// first.
func QueueBacklogs(prov []telemetry.Prov) []QueueBacklog {
	if len(prov) == 0 {
		return nil
	}
	stepStart := map[int]float64{}
	winEnd := prov[0].End
	for _, r := range prov {
		if s, ok := stepStart[r.Step]; !ok || r.Start-r.QueueWait < s {
			stepStart[r.Step] = r.Start - r.QueueWait
		}
		winEnd = max(winEnd, r.End)
	}
	steps := make([]int, 0, len(stepStart))
	for s := range stepStart {
		steps = append(steps, s)
	}
	sort.Ints(steps)
	stepIdx := make(map[int]int, len(steps))
	for k, s := range steps {
		stepIdx[s] = k
	}

	type queue struct {
		QueueBacklog
		emptied []float64 // per step: the Start of the queue's last chunk
	}
	byOwner := map[int]*queue{}
	for _, r := range prov {
		q := byOwner[r.Owner]
		if q == nil {
			q = &queue{QueueBacklog: QueueBacklog{Queue: r.Owner, PhaseStart: make([]int, len(steps))},
				emptied: make([]float64, len(steps))}
			byOwner[r.Owner] = q
		}
		k, s := stepIdx[r.Step], stepStart[r.Step]
		q.PhaseStart[k] += r.Iters()
		q.Mean += float64(r.Iters()) * (r.Start - s) // summed iteration-time, divided below
		q.emptied[k] = max(q.emptied[k], r.Start-s)
	}
	span := winEnd - stepStart[steps[0]]
	out := make([]QueueBacklog, 0, len(byOwner))
	for _, q := range byOwner {
		q.Max = slices.Max(q.PhaseStart)
		for _, d := range q.emptied {
			q.Nonempty += d
		}
		if span > 0 {
			q.Mean /= span
			q.Nonempty /= span
		} else {
			q.Mean, q.Nonempty = 0, 0
		}
		out = append(out, q.QueueBacklog)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Queue < out[j].Queue })
	return out
}
