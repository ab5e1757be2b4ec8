package perflab

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// SchemaVersion identifies the BENCH_<n>.json layout. Bump on
// incompatible changes; Load rejects newer schemas rather than
// misreading them.
const SchemaVersion = 1

// A Baseline is one persisted benchmark run: provenance plus the full
// per-case distributions, stored as BENCH_<n>.json at the repo root so
// the performance trajectory lives in version control next to the code
// it measures.
type Baseline struct {
	Schema     int          `json:"schema"`
	Seq        int          `json:"seq"` // the <n> of BENCH_<n>.json, set on write/load
	GitSHA     string       `json:"git_sha"`
	Timestamp  time.Time    `json:"timestamp"`
	Host       string       `json:"host"`
	GoVersion  string       `json:"go_version"`
	NumCPU     int          `json:"num_cpu"`
	GOMAXPROCS int          `json:"gomaxprocs,omitempty"` // 0 in baselines that predate it
	Short      bool         `json:"short"`
	Seed       uint64       `json:"seed,omitempty"` // runner BaseSeed; 0 in pre-seed baselines
	Cases      []CaseResult `json:"cases"`
}

// NewBaseline stamps results with provenance gathered from the
// environment (git SHA of dir, hostname, Go version) plus the run
// parameters (scale, seed) a later gate must match.
func NewBaseline(dir string, short bool, seed uint64, results []CaseResult) *Baseline {
	host, _ := os.Hostname()
	return &Baseline{
		Schema:     SchemaVersion,
		GitSHA:     gitSHA(dir),
		Timestamp:  time.Now().UTC(),
		Host:       host,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Short:      short,
		Seed:       seed,
		Cases:      results,
	}
}

// CheckCompatible reports whether a run at the given scale and seed can
// be meaningfully compared against b. A scale mismatch (short vs full)
// changes problem sizes and repeat counts; a seed mismatch changes the
// deterministic simulator samples the gate relies on — either one turns
// every delta into noise, so the gate refuses rather than misjudging.
// Baselines written before the seed was recorded (Seed == 0) pass the
// seed test with a warning left to the caller.
func (b *Baseline) CheckCompatible(short bool, seed uint64) error {
	if b.Short != short {
		return fmt.Errorf("perflab: baseline %d was recorded with short=%v but this run uses short=%v; rerun at the matching scale or record a new baseline",
			b.Seq, b.Short, short)
	}
	if b.Seed != 0 && b.Seed != seed {
		return fmt.Errorf("perflab: baseline %d was recorded with -seed %d but this run uses -seed %d; deterministic samples differ, comparison would be meaningless",
			b.Seq, b.Seed, seed)
	}
	return nil
}

// UsableCPUs is how many workers the recording host could run at
// once: min(NumCPU, GOMAXPROCS), NumCPU alone when GOMAXPROCS was not
// recorded, 0 when neither was.
func (b *Baseline) UsableCPUs() int {
	if b.GOMAXPROCS > 0 && b.GOMAXPROCS < b.NumCPU {
		return b.GOMAXPROCS
	}
	return b.NumCPU
}

// gitSHA returns dir's HEAD commit, or "unknown" outside a repo.
func gitSHA(dir string) string {
	out, err := exec.Command("git", "-C", dir, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// Lookup returns the result for a case ID, or nil.
func (b *Baseline) Lookup(id string) *CaseResult {
	for i := range b.Cases {
		if b.Cases[i].ID == id {
			return &b.Cases[i]
		}
	}
	return nil
}

var benchName = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// BaselineFiles lists dir's BENCH_<n>.json paths in ascending n.
func BaselineFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type numbered struct {
		n    int
		path string
	}
	var found []numbered
	for _, e := range entries {
		m := benchName.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, _ := strconv.Atoi(m[1])
		found = append(found, numbered{n, filepath.Join(dir, e.Name())})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].n < found[j].n })
	paths := make([]string, len(found))
	for i, f := range found {
		paths[i] = f.path
	}
	return paths, nil
}

// WriteNext saves b as dir's next free BENCH_<n>.json and returns the
// path. Numbering continues from the highest existing baseline, so the
// sequence is append-only.
func WriteNext(dir string, b *Baseline) (string, error) {
	files, err := BaselineFiles(dir)
	if err != nil {
		return "", err
	}
	next := 1
	if len(files) > 0 {
		last := benchName.FindStringSubmatch(filepath.Base(files[len(files)-1]))
		n, _ := strconv.Atoi(last[1])
		next = n + 1
	}
	b.Seq = next
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", next))
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads one baseline file, verifying the schema version.
func Load(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("perflab: parsing %s: %w", path, err)
	}
	if b.Schema > SchemaVersion {
		return nil, fmt.Errorf("perflab: %s has schema %d, this binary understands <= %d",
			path, b.Schema, SchemaVersion)
	}
	if m := benchName.FindStringSubmatch(filepath.Base(path)); m != nil {
		b.Seq, _ = strconv.Atoi(m[1])
	}
	return &b, nil
}

// LoadAll reads every baseline in dir in ascending sequence order.
func LoadAll(dir string) ([]*Baseline, error) {
	files, err := BaselineFiles(dir)
	if err != nil {
		return nil, err
	}
	out := make([]*Baseline, 0, len(files))
	for _, f := range files {
		b, err := Load(f)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// Latest loads dir's highest-numbered baseline, or nil when none exist.
func Latest(dir string) (*Baseline, error) {
	files, err := BaselineFiles(dir)
	if err != nil || len(files) == 0 {
		return nil, err
	}
	return Load(files[len(files)-1])
}
