package promtext

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Writer emits one exposition. Every family is declared once, by
// Family (or Counter or Quantiles), before its samples; label values
// are escaped as the format requires and nothing else. Writer keeps
// the first write error: later calls write nothing, and Err returns
// it.
type Writer struct {
	w   io.Writer
	err error
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Err returns the first write error, or nil.
func (w *Writer) Err() error { return w.err }

// Family declares a metric family: its # HELP and # TYPE lines. typ is
// one of counter, gauge, histogram, summary or untyped; help is
// constant text, free of backslashes and line feeds.
func (w *Writer) Family(name, typ, help string) {
	w.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Int writes one sample with an integer value. labels are name, value
// pairs.
func (w *Writer) Int(name string, v int64, labels ...string) {
	w.printf("%s%s %d\n", name, labelBlock(labels), v)
}

// Float writes one sample with a float value, in the shortest form
// that reads back exactly. labels are name, value pairs.
func (w *Writer) Float(name string, v float64, labels ...string) {
	w.printf("%s%s %s\n", name, labelBlock(labels), strconv.FormatFloat(v, 'g', -1, 64))
}

// Counter declares a counter family and writes its one sample.
func (w *Writer) Counter(name, help string, v int64) {
	w.Family(name, "counter", help)
	w.Int(name, v)
}

// Quantiles declares name as a gauge family holding the 0.5, 0.9 and
// 0.99 quantiles, and name_count as a gauge family holding the number
// of observations they describe (countHelp is its help text).
func (w *Writer) Quantiles(name, help, countHelp string, count int64, p50, p90, p99 float64) {
	w.Family(name, "gauge", help)
	w.Float(name, p50, "quantile", "0.5")
	w.Float(name, p90, "quantile", "0.9")
	w.Float(name, p99, "quantile", "0.99")
	w.Family(name+"_count", "gauge", countHelp)
	w.Int(name+"_count", count)
}

func (w *Writer) printf(format string, args ...any) {
	if w.err == nil {
		_, w.err = fmt.Fprintf(w.w, format, args...)
	}
}

// labelEscaper escapes a label value. The format escapes backslash,
// double quote and line feed only; every other byte, a tab or
// non-ASCII UTF-8 included, is written as it is.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// labelBlock renders name, value pairs as {name="value",...}, or ""
// when there are none.
func labelBlock(labels []string) string {
	var b strings.Builder
	for i := 0; i+1 < len(labels); i += 2 {
		if i == 0 {
			b.WriteString("{")
		} else {
			b.WriteString(",")
		}
		b.WriteString(labels[i] + `="`)
		labelEscaper.WriteString(&b, labels[i+1])
		b.WriteString(`"`)
	}
	if b.Len() > 0 {
		b.WriteString("}")
	}
	return b.String()
}
