package repro_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/cli"
	"repro/internal/forensics"
	"repro/internal/telemetry"
)

// simGolden is one pinned simulator configuration and the SHA-256
// digests of its five outputs: the event stream as JSON, the
// provenance records as JSON, the Chrome trace (rendered as
// `paperfigs -trace-out` renders it), the `loopdoctor analyze`
// markdown report and the metrics series CSV (as `loopsched
// -metrics-out` writes it). multiset digests the event stream as an
// order-free multiset (eventMultiset), so a change that only reorders
// events, or moves a time by a rounding error, keeps it.
type simGolden struct {
	machine, kernel, algo string
	procs, n, phases      int
	flush                 int    // FlushEverySteps
	seed                  uint64 // jitter seed
	events, prov          string
	chrome, forensics     string
	series, multiset      string
}

var simGoldens = []simGolden{
	{machine: "iris", kernel: "gauss", algo: "afs", procs: 8, n: 64, seed: 0,
		events:    "c4a36e9c07250346460929d3917dd7d4ca793c7557194f452364b8d43139f1d6",
		prov:      "1c1f6eb49ce6a6c713edc87d7d1ef62c1ebaa50d67f5d22962bb980d353142dd",
		chrome:    "9acdb01943214cbb20b165e27c8b08f320d0052e6c44323629b498b76f2ed7fb",
		forensics: "d4609609e131254e4a65c0aca26cf9c2f4b297027bf2007b96f8c0a9eec2949e",
		series:    "b0d97ab0126d9cc37526fb9fc48d3591877af7838a4e95cf274e8b02f7a3127c",
		multiset:  "a2ab66407cc1498481a7f80d1106bdb355e1a15eb1c86918dc440021000ffad8"},
	{machine: "ksr1", kernel: "sor", algo: "gss", procs: 8, n: 64, phases: 4, flush: 2, seed: 7,
		events:    "d91eb7243c53f6ec52d7da6b7693161114cbc15a5aba6959160858379af68397",
		prov:      "80e044062df3d0cdbb41bb63673af8d5707a1e01908ad8654957cffaa583d594",
		chrome:    "7f3d1a365b5a55a3897d86d62ee93c701037abeadf84168099b4ea7582c575bf",
		forensics: "bed75f2669045c2e3573c1085b4b701da018b2b3e4763850a654edb00a8e9cb6",
		series:    "0f92d6053a80c4c6bb79addbbdfcd7b6627187e501e77cabd3af6f37eec3fb8f",
		multiset:  "1ff809d205040e2a56de99583428ccbabaaecea6e1daaba232d5deec33c73314"},
	{machine: "symmetry", kernel: "tc-skew", algo: "factoring", procs: 8, n: 64, seed: 11,
		events:    "6c17a9589b90b65a1c0b54b638c2806f844acda925df6f09a6df5045a017abe6",
		prov:      "1ef385b3a280f3cd85d4a19599ecc0e924236a0f9721cabc92a8f0040a095a31",
		chrome:    "96ba5aec9f576dd49ca4cac6ab19cdb50f4d52de30571ffdfffe4330473cd910",
		forensics: "55201eb37b5e82a5b1c8d55f58cd26197599d64c983c6d091239bba3360bf06c",
		series:    "4b12aa8a9302bfaab4f05c017f5b38c6900ab6062bbfaf23b6b23a1085823531",
		multiset:  "24f111c5258212ec76e85e262e198f2307170c5d7fe0a444241c762401226fb4"},
}

// eventMultiset renders an event stream canonically: one line per
// event with its times rounded to 9 significant digits, the lines
// sorted, and a queue wait that repeats a steal of the same processor
// and step over the same interval dropped, since a stolen chunk's
// record already carries its wait as the steal.
func eventMultiset(evs []telemetry.Event) []byte {
	round := func(x float64) string { return strconv.FormatFloat(x, 'g', 9, 64) }
	line := func(e telemetry.Event) string {
		return fmt.Sprintf("%d %s %d %d %d %d %s %s", e.Step, e.Kind, e.Proc, e.Victim, e.Lo, e.Hi, round(e.Start), round(e.End))
	}
	type wait struct {
		proc, step int
		start, end string
	}
	steals := map[wait]int{}
	for _, e := range evs {
		if e.Kind == telemetry.KindSteal {
			steals[wait{e.Proc, e.Step, round(e.Start), round(e.End)}]++
		}
	}
	lines := make([]string, 0, len(evs))
	for _, e := range evs {
		if e.Kind == telemetry.KindQueueWait {
			if k := (wait{e.Proc, e.Step, round(e.Start), round(e.End)}); steals[k] > 0 {
				steals[k]--
				continue
			}
		}
		lines = append(lines, line(e))
	}
	sort.Strings(lines)
	return []byte(strings.Join(lines, "\n"))
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// TestSimOutputsPinned locks the simulator's observable outputs
// byte for byte: any change to what the engine emits, in what order,
// or to how the exporters and forensics render it, shows up here.
func TestSimOutputsPinned(t *testing.T) {
	for _, g := range simGoldens {
		name := fmt.Sprintf("%s/%s/%s/p%d", g.kernel, g.algo, g.machine, g.procs)
		t.Run(name, func(t *testing.T) {
			m, err := repro.MachineByName(g.machine)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := repro.SchedulerByName(g.algo)
			if err != nil {
				t.Fatal(err)
			}
			build, desc, err := cli.BuildKernel(g.kernel, g.n, g.phases, 1, m)
			if err != nil {
				t.Fatal(err)
			}
			events := telemetry.NewLog[telemetry.Event]()
			prov := telemetry.NewLog[telemetry.Prov]()
			reg := telemetry.NewRegistry()
			if _, err := repro.Simulate(m, g.procs, spec, build(),
				repro.WithSimSeed(g.seed), repro.WithSimCacheFlush(g.flush),
				repro.WithSimEvents(events), repro.WithSimProvenance(prov),
				repro.WithSimMetrics(reg)); err != nil {
				t.Fatal(err)
			}

			evJSON, err := json.Marshal(events.Records())
			if err != nil {
				t.Fatal(err)
			}
			pvJSON, err := json.Marshal(prov.Records())
			if err != nil {
				t.Fatal(err)
			}
			var chrome bytes.Buffer
			if err := telemetry.WriteChromeTrace(&chrome, events.Records(), telemetry.ChromeOptions{
				Label:     fmt.Sprintf("%s on %s, %s, p=%d (simulated)", desc, m.Name, spec.Name, g.procs),
				Procs:     g.procs,
				TimeScale: 1e6 / m.CyclesPerSec,
			}); err != nil {
				t.Fatal(err)
			}
			// The report goes through a trace file, as `loopdoctor
			// capture` then `analyze` would.
			var file bytes.Buffer
			tr := &telemetry.TraceFile{
				Meta: telemetry.TraceMeta{Label: name, Substrate: "sim", Machine: g.machine,
					Kernel: g.kernel, Algo: g.algo, Procs: g.procs, TimeUnit: "cycles"},
				Events: events.Records(),
				Prov:   prov.Records(),
			}
			if err := tr.Write(&file); err != nil {
				t.Fatal(err)
			}
			read, err := telemetry.ReadTrace(&file)
			if err != nil {
				t.Fatal(err)
			}
			a, err := forensics.Analyze(read)
			if err != nil {
				t.Fatal(err)
			}
			if g.seed == 0 && g.flush == 0 {
				// loopdoctor capture's own path must record the same run.
				captured, _, err := forensics.CaptureSim(forensics.CaptureSpec{Machine: g.machine,
					Kernel: g.kernel, Algo: g.algo, Procs: g.procs, N: g.n, Phases: g.phases, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				ce, _ := json.Marshal(captured.Events)
				cp, _ := json.Marshal(captured.Prov)
				if !bytes.Equal(ce, evJSON) || !bytes.Equal(cp, pvJSON) {
					t.Error("forensics.CaptureSim recorded a different run")
				}
			}
			var report bytes.Buffer
			if err := forensics.WriteMarkdown(&report, a); err != nil {
				t.Fatal(err)
			}
			var series bytes.Buffer
			if err := telemetry.WriteSeriesCSV(&series, reg); err != nil {
				t.Fatal(err)
			}

			got := map[string][2]string{
				"events":    {digest(evJSON), g.events},
				"prov":      {digest(pvJSON), g.prov},
				"chrome":    {digest(chrome.Bytes()), g.chrome},
				"forensics": {digest(report.Bytes()), g.forensics},
				"series":    {digest(series.Bytes()), g.series},
				"multiset":  {digest(eventMultiset(events.Records())), g.multiset},
			}
			failed := false
			for _, out := range []string{"events", "prov", "chrome", "forensics", "series", "multiset"} {
				if d := got[out]; d[0] != d[1] {
					t.Errorf("%s digest %s, pinned %s", out, d[0], d[1])
					failed = true
				}
			}
			if failed {
				kinds := map[telemetry.Kind]int{}
				for _, e := range events.Records() {
					kinds[e.Kind]++
				}
				t.Logf("event counts by kind: exec %d, steal %d, queue-wait %d, cache-flush %d, phase-begin %d, phase-end %d; %d prov records",
					kinds[telemetry.KindExec], kinds[telemetry.KindSteal], kinds[telemetry.KindQueueWait],
					kinds[telemetry.KindCacheFlush], kinds[telemetry.KindPhaseBegin], kinds[telemetry.KindPhaseEnd],
					prov.Len())
			}
		})
	}
}
