package promtext

import (
	"errors"
	"strings"
	"testing"
)

func TestParseValid(t *testing.T) {
	const in = `
# HELP x_total Things counted.
# TYPE x_total counter
x_total 42
# TYPE lat gauge
lat{quantile="0.5"} 1.5e3
lat{quantile="0.99"} 2e6
esc{name="a\"b\\c\nd"} -3 1700000000000
`
	exp, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := exp.Value("x_total"); err != nil || v != 42 {
		t.Fatalf("x_total = %v, %v", v, err)
	}
	if v, err := exp.Value("lat", "quantile", "0.99"); err != nil || v != 2e6 {
		t.Fatalf("lat p99 = %v, %v", v, err)
	}
	if got := len(exp.ByName("lat")); got != 2 {
		t.Fatalf("lat series = %d, want 2", got)
	}
	if exp.Families["x_total"].Type != "counter" || exp.Families["x_total"].Help == "" {
		t.Fatalf("family metadata: %+v", exp.Families["x_total"])
	}
	if s := exp.ByName("esc"); len(s) != 1 || s[0].Labels["name"] != "a\"b\\c\nd" {
		t.Fatalf("escaped label value: %+v", s)
	}
	if _, err := exp.Value("lat", "quantile", "0.75"); err == nil {
		t.Fatal("missing sample found")
	}
}

func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"duplicate identity":  "a 1\na 2\n",
		"duplicate labeled":   `a{x="1"} 1` + "\n" + `a{x="1"} 2` + "\n",
		"bad metric name":     "1abc 1\n",
		"bad label name":      `a{1x="v"} 1` + "\n",
		"unquoted label":      `a{x=v} 1` + "\n",
		"unterminated value":  `a{x="v} 1` + "\n",
		"no value":            "a\n",
		"bad value":           "a one\n",
		"bad timestamp":       "a 1 soon\n",
		"unknown type":        "# TYPE a histogramm\na 1\n",
		"type after samples":  "a 1\n# TYPE a counter\n",
		"malformed TYPE line": "# TYPE a\n",
		"duplicate label":     `a{x="1",x="2"} 1` + "\n",
	}
	for name, in := range cases {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted:\n%s", name, in)
		}
	}
	// A free-form comment is not an error.
	if _, err := Parse(strings.NewReader("# hello\na 1\n")); err != nil {
		t.Errorf("free-form comment rejected: %v", err)
	}
}

// Two expositions sharing a family — what naive concatenation of two
// WriteProm calls produces when both emit the same series.
const combinedDup = `# HELP loopsched_shared_total A counter both writers declare.
# TYPE loopsched_shared_total counter
loopsched_shared_total{src="plane"} 3
# HELP loopsched_plane_only A plane-only gauge.
# TYPE loopsched_plane_only gauge
loopsched_plane_only 1
# HELP loopsched_shared_total A counter both writers declare.
# TYPE loopsched_shared_total counter
loopsched_shared_total{src="slo"} 7
`

func TestParseRejectsDuplicateFamilyDeclarations(t *testing.T) {
	if _, err := Parse(strings.NewReader(combinedDup)); err == nil {
		t.Fatal("duplicate HELP/TYPE declarations parsed without error")
	} else if !strings.Contains(err.Error(), "duplicate HELP") {
		t.Fatalf("err = %v, want duplicate-HELP rejection", err)
	}

	dupType := "# TYPE loopsched_x counter\n# TYPE loopsched_x counter\nloopsched_x 1\n"
	if _, err := Parse(strings.NewReader(dupType)); err == nil || !strings.Contains(err.Error(), "duplicate TYPE") {
		t.Fatalf("duplicate TYPE: err = %v", err)
	}
}

// TestWriterBytes pins the writer's output: label escaping of only
// backslash, quote and line feed, %d integers and
// shortest round-trip floats; and checks that Parse reads it back.
func TestWriterBytes(t *testing.T) {
	var b strings.Builder
	w := NewWriter(&b)
	w.Counter("x_total", "Things counted.", 42)
	w.Family("lat", "gauge", "Latency.")
	w.Float("lat", 1500, "who", "tab\there", "why", `q"b\n`+"\n")
	w.Float("lat", 0.1, "who", "é\a")
	w.Quantiles("q", "Quantiles.", "Observations.", 3, 0.5, 2e6, 7e-9)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	const want = "# HELP x_total Things counted.\n# TYPE x_total counter\nx_total 42\n" +
		"# HELP lat Latency.\n# TYPE lat gauge\n" +
		"lat{who=\"tab\there\",why=\"q\\\"b\\\\n\\n\"} 1500\n" +
		"lat{who=\"é\a\"} 0.1\n" +
		"# HELP q Quantiles.\n# TYPE q gauge\n" +
		"q{quantile=\"0.5\"} 0.5\nq{quantile=\"0.9\"} 2e+06\nq{quantile=\"0.99\"} 7e-09\n" +
		"# HELP q_count Observations.\n# TYPE q_count gauge\nq_count 3\n"
	if b.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", b.String(), want)
	}
	exp, err := Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Value("lat", "who", "tab\there", "why", `q"b\n`+"\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Value("lat", "who", "é\a"); err != nil {
		t.Fatal(err)
	}
}

type failAfter struct {
	n     int
	calls int
}

func (f *failAfter) Write(p []byte) (int, error) {
	f.calls++
	if f.calls > f.n {
		return 0, errWrite
	}
	return len(p), nil
}

var errWrite = errors.New("write failed")

// TestWriterKeepsFirstError: after a failed write the writer writes
// nothing more and reports that first error.
func TestWriterKeepsFirstError(t *testing.T) {
	f := &failAfter{n: 1}
	w := NewWriter(f)
	w.Counter("a_total", "A.", 1) // the family succeeds, the sample fails
	w.Counter("b_total", "B.", 2)
	w.Float("c", 3)
	if err := w.Err(); err != errWrite {
		t.Fatalf("Err = %v, want %v", err, errWrite)
	}
	if f.calls != 2 {
		t.Fatalf("%d writes, want 2 (none after the failure)", f.calls)
	}
}
