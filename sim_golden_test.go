package repro_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
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
// -metrics-out` writes it).
type simGolden struct {
	machine, kernel, algo string
	procs, n, phases      int
	flush                 int    // FlushEverySteps
	seed                  uint64 // jitter seed
	events, prov          string
	chrome, forensics     string
	series                string
}

var simGoldens = []simGolden{
	{machine: "iris", kernel: "gauss", algo: "afs", procs: 8, n: 64, seed: 0,
		events:    "39c5395d376ed13ce1a2b722ac364fcc92758c3e2c1ffc86ce4965e320db7484",
		prov:      "1c1f6eb49ce6a6c713edc87d7d1ef62c1ebaa50d67f5d22962bb980d353142dd",
		chrome:    "dcf7bf39e24ef4f7e27109aaf2260dc8c2b246b08c4ddc9f64a396c4ffa93650",
		forensics: "d4609609e131254e4a65c0aca26cf9c2f4b297027bf2007b96f8c0a9eec2949e",
		series:    "b60b13b16f90c0296bfc5a4fedc6a1d13ff1df265b8ee063745dd59b2e6cca90"},
	{machine: "ksr1", kernel: "sor", algo: "gss", procs: 8, n: 64, phases: 4, flush: 2, seed: 7,
		events:    "4f12c9c7b74942d1964b57be60d03e97951c9d8ae4ace7c35bf8764a1d95ed76",
		prov:      "80e044062df3d0cdbb41bb63673af8d5707a1e01908ad8654957cffaa583d594",
		chrome:    "97898ac91a944f0c2babd376d71000754b0f3529173665c7a76e508ac33675a6",
		forensics: "bed75f2669045c2e3573c1085b4b701da018b2b3e4763850a654edb00a8e9cb6",
		series:    "0f92d6053a80c4c6bb79addbbdfcd7b6627187e501e77cabd3af6f37eec3fb8f"},
	{machine: "symmetry", kernel: "tc-skew", algo: "factoring", procs: 8, n: 64, seed: 11,
		events:    "ae34e56bfcf0b0541fdc14a9b13ea7b052ab3b8e17ca3c335c944a1cd1cb3333",
		prov:      "1ef385b3a280f3cd85d4a19599ecc0e924236a0f9721cabc92a8f0040a095a31",
		chrome:    "703a90b8f4512df5f1b5a1fd169536ed17dae7d67535195d573e12b565e27957",
		forensics: "55201eb37b5e82a5b1c8d55f58cd26197599d64c983c6d091239bba3360bf06c",
		series:    "9f91087cb7f32d36c0ec2ce3d99632ad4d0518094361044e54e109190283aecf"},
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
			}
			failed := false
			for _, out := range []string{"events", "prov", "chrome", "forensics", "series"} {
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
