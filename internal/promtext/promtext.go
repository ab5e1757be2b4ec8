// Package promtext reads and writes the Prometheus text exposition
// format (version 0.0.4). Writer is the one emitter behind every
// loopsched_* family on /metrics.prom: it declares each family once,
// escapes label values as the format requires, and keeps the first
// write error. Parse validates a scrape the way a Prometheus server
// would read it: metric and label names match the grammar, label
// escapes are the format's three, every sample parses to a float, TYPE
// declarations precede their samples, no family is declared twice, and
// no two samples share a (name, label set) identity.
package promtext

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed sample line.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// key is the sample's identity: name plus sorted label pairs.
func (s Sample) key() string {
	pairs := make([]string, 0, len(s.Labels))
	for k, v := range s.Labels {
		pairs = append(pairs, k+"="+v)
	}
	sort.Strings(pairs)
	return s.Name + "{" + strings.Join(pairs, ",") + "}"
}

// Family is one metric family's declared metadata.
type Family struct {
	Name string
	Type string // counter, gauge, histogram, summary, untyped
	Help string
}

// Exposition is one parsed scrape.
type Exposition struct {
	Families map[string]Family
	Samples  []Sample
}

// Value returns the single sample with the given name and exactly the
// given label pairs (key, value, key, value, ...), or an error.
func (e *Exposition) Value(name string, kv ...string) (float64, error) {
	want := map[string]string{}
	for i := 0; i+1 < len(kv); i += 2 {
		want[kv[i]] = kv[i+1]
	}
	for _, s := range e.Samples {
		if s.Name != name || len(s.Labels) != len(want) {
			continue
		}
		match := true
		for k, v := range want {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.Value, nil
		}
	}
	return 0, fmt.Errorf("promtext: no sample %s%v", name, kv)
}

// ByName returns every sample of one metric.
func (e *Exposition) ByName(name string) []Sample {
	var out []Sample
	for _, s := range e.Samples {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	return validName(s) && !strings.Contains(s, ":")
}

var validTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true, "summary": true, "untyped": true,
}

// Parse reads one exposition, validating structure as it goes.
func Parse(r io.Reader) (*Exposition, error) {
	e := &Exposition{Families: map[string]Family{}}
	seen := map[string]bool{}
	sampled := map[string]bool{}  // families that already emitted samples
	declared := map[string]bool{} // "H name" / "T name" declarations seen
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := e.parseComment(line, sampled, declared); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if seen[s.key()] {
			return nil, fmt.Errorf("line %d: duplicate sample identity %s", lineNo, s.key())
		}
		seen[s.key()] = true
		sampled[s.Name] = true
		e.Samples = append(e.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *Exposition) parseComment(line string, sampled, declared map[string]bool) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // free-form comment
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !validName(fields[2]) {
			return fmt.Errorf("malformed HELP line %q", line)
		}
		// The format allows at most one HELP per family; a repeat is
		// the signature of two concatenated expositions that share a
		// family.
		if declared["H "+fields[2]] {
			return fmt.Errorf("duplicate HELP for %s", fields[2])
		}
		declared["H "+fields[2]] = true
		fam := e.Families[fields[2]]
		fam.Name = fields[2]
		if len(fields) == 4 {
			fam.Help = fields[3]
		}
		e.Families[fields[2]] = fam
	case "TYPE":
		if len(fields) < 4 || !validName(fields[2]) {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		if !validTypes[fields[3]] {
			return fmt.Errorf("unknown metric type %q for %s", fields[3], fields[2])
		}
		if sampled[fields[2]] {
			return fmt.Errorf("TYPE for %s appears after its samples", fields[2])
		}
		if declared["T "+fields[2]] {
			return fmt.Errorf("duplicate TYPE for %s", fields[2])
		}
		declared["T "+fields[2]] = true
		fam := e.Families[fields[2]]
		fam.Name = fields[2]
		fam.Type = fields[3]
		e.Families[fields[2]] = fam
	}
	return nil
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	brace := strings.IndexByte(rest, '{')
	var nameEnd int
	if brace >= 0 {
		nameEnd = brace
	} else if sp := strings.IndexAny(rest, " \t"); sp >= 0 {
		nameEnd = sp
	} else {
		return s, fmt.Errorf("sample line %q has no value", line)
	}
	s.Name = rest[:nameEnd]
	if !validName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest = rest[nameEnd:]
	if brace >= 0 {
		end, labels, err := parseLabels(rest)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[end:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("sample line %q: want VALUE [TIMESTAMP] after the name", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("sample line %q: bad value: %v", line, err)
	}
	s.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("sample line %q: bad timestamp: %v", line, err)
		}
	}
	return s, nil
}

// parseLabels parses a {name="value",...} block starting at rest[0]
// and returns the index just past the closing brace.
func parseLabels(rest string) (int, map[string]string, error) {
	labels := map[string]string{}
	i := 1 // past '{'
	for {
		for i < len(rest) && (rest[i] == ' ' || rest[i] == ',') {
			i++
		}
		if i < len(rest) && rest[i] == '}' {
			return i + 1, labels, nil
		}
		eq := strings.IndexByte(rest[i:], '=')
		if eq < 0 {
			return 0, nil, fmt.Errorf("label block %q: missing '='", rest)
		}
		name := rest[i : i+eq]
		if !validLabelName(name) {
			return 0, nil, fmt.Errorf("invalid label name %q", name)
		}
		i += eq + 1
		if i >= len(rest) || rest[i] != '"' {
			return 0, nil, fmt.Errorf("label %q: value must be quoted", name)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(rest) {
				return 0, nil, fmt.Errorf("label %q: unterminated value", name)
			}
			c := rest[i]
			if c == '\\' {
				if i+1 >= len(rest) {
					return 0, nil, fmt.Errorf("label %q: trailing escape", name)
				}
				switch rest[i+1] {
				case 'n':
					val.WriteByte('\n')
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				default:
					return 0, nil, fmt.Errorf("label %q: bad escape \\%c", name, rest[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		if _, dup := labels[name]; dup {
			return 0, nil, fmt.Errorf("duplicate label %q", name)
		}
		labels[name] = val.String()
	}
}
