// Package lint is the repo's custom static-analysis suite: a set of
// analyzers, written on the standard library's go/ast + go/parser +
// go/types only, that machine-check the conventions the reproduction's
// headline claims rest on.
//
// The deterministic simulator promises bit-identical schedules and
// costs (DESIGN.md §2, gated by the BENCH_* baselines); the affinity
// argument depends on the deterministic ⌈N/P⌉ ownership mapping; and
// the perf lab and forensics tooling are only trustworthy if telemetry
// is never silently dropped. None of that survives a stray time.Now,
// an unseeded rand call, a map-order dependence, or an unchecked
// exporter error — so this package makes the conventions diagnosable:
//
//   - determinism: no wall-clock reads, no global math/rand, no map
//     iteration, no goroutine spawns inside the replay-sensitive
//     packages (internal/sim, internal/machine, internal/sched,
//     internal/analytic; wall-clock reads are additionally flagged in
//     internal/core, where the real runtime must annotate each one);
//   - locking: no lock-bearing values copied by value, no mutex held
//     across a channel operation or Submit call, and — tracked over
//     the control-flow graph, so branch-dependent paths count — no
//     return with a mutex still held (use defer) in internal/core +
//     internal/pool;
//   - atomics: one access discipline per field, module-wide — a field
//     updated through sync/atomic anywhere is never plainly written
//     (or address-escaped) elsewhere, and never plainly read in the
//     packages doing the atomic accesses (init/constructor paths and
//     by-value copies exempt);
//   - ctxflow: in internal/core, pool and serve, blocking channel
//     operations and queue waits reachable with a context in scope
//     must sit under a select with a ctx.Done()/stop arm — scope
//     enters at a ctx parameter or local binding and propagates
//     forward over the CFG;
//   - leaks: every go statement in the service packages (serve, pool,
//     watchdog, livemetrics, core) must have a provable shutdown edge
//     — a CFG path from the body's entry to its exit — or an
//     annotated drain contract;
//   - telemetry: no discarded error results from exporter/sink
//     packages, no telemetry.Event composite literal without an
//     explicit Step field, no span collection started
//     (spantrace.StartSubmission) without an End/Abandon seal before
//     every return path in the span-emitting packages, and no armed
//     anomaly detector (watchdog.New) without a diagnostic-bundle
//     capture (bundle.Attach / Capturer.Capture) wired in the same
//     function;
//   - hygiene: flag parsing in cmd/ goes through the internal/cli
//     validators, and no new call sites of deprecated API.
//
// Findings are suppressed — never silenced — with a directive on the
// offending line or the line above:
//
//	//lint:allow <check> <reason>
//
// The reason is mandatory; a reasonless directive is itself a
// diagnostic, and a directive that suppresses nothing is reported by
// the -unused-allows audit (stale allows pre-forgive the next
// regression at that site). The flow-sensitive checks share one
// substrate: a per-function CFG builder (cfg.go) and a generic
// forward-dataflow solver (dataflow.go). The suite runs as `go run
// ./cmd/schedlint ./...`, as a CI gate (JSON artifact + SARIF upload
// to code scanning), and as a self-lint test so `go test ./...` fails
// if the repo violates its own rules.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	// Check names the analyzer that fired (or "directive" for a
	// malformed //lint:allow).
	Check string
	// Pos locates the finding.
	Pos token.Position
	// Message states the violation.
	Message string
	// Suppressed marks a finding matched by a reasoned //lint:allow
	// directive. Suppressed findings are reported (so audits see them)
	// but do not fail the run.
	Suppressed bool
	// Reason carries the suppressing directive's reason, when
	// suppressed.
	Reason string
}

// String renders the vet-style one-line form.
func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s: [%s] %s", d.Pos, d.Check, d.Message)
	if d.Suppressed {
		s += fmt.Sprintf(" (allowed: %s)", d.Reason)
	}
	return s
}

// Config selects which package groups each check applies to. All
// entries are import-path prefixes; a package matches a prefix when it
// equals the prefix or sits below it.
type Config struct {
	// Deterministic lists the replay-sensitive packages: the full
	// determinism check (wall clock, global math/rand, map iteration,
	// goroutine spawns) applies here.
	Deterministic []string
	// WallClock lists additional packages where only the wall-clock
	// rule applies — the real runtime reads the host clock on purpose,
	// and every such read must carry a reasoned //lint:allow.
	WallClock []string
	// Locking lists the packages subject to the lock-discipline rules.
	Locking []string
	// ExporterPkgs lists the packages whose error-returning calls must
	// never be discarded (the telemetry check's unchecked-error rule).
	ExporterPkgs []string
	// EventTypes lists qualified struct type names
	// ("pkg/path.TypeName") whose composite literals must carry an
	// explicit Step field.
	EventTypes []string
	// SpanPkgs lists the packages (exact import paths, no prefix
	// matching — the module root is a member and would otherwise match
	// everything) whose functions must seal every span collection they
	// start: a StartSubmission call must be followed by an End or
	// Abandon call before any return statement, or the trace — and the
	// exemplar the /metrics tail would link to — silently leaks.
	SpanPkgs []string
	// SpanTracePkg is the import path of the span-tracing package whose
	// Tracer.StartSubmission / Active.End / Active.Abandon methods the
	// span-balance rule keys on.
	SpanTracePkg string
	// WatchdogPkg is the import path of the anomaly-detector package.
	// When set (together with BundlePkg), the telemetry check requires
	// every function that arms a detector (watchdog.New) to also wire a
	// bundle capture — call bundle.Attach or Capturer.Capture — so a
	// firing produces a diagnostic bundle, not just a log line.
	WatchdogPkg string
	// BundlePkg is the import path of the diagnostic-bundle package the
	// triage-wiring rule accepts capture calls from.
	BundlePkg string
	// CmdPkgs lists the command packages whose flag parsing must go
	// through the internal/cli validators.
	CmdPkgs []string
	// CLIPkg is the import path of the shared flag-validation package;
	// bare cli.ParseProcs/ParseAlgos calls in CmdPkgs are diagnosed in
	// favour of the flag-naming wrappers.
	CLIPkg string
	// Atomics lists the packages where mixed atomic/plain access to a
	// field is reported (the atomic-access index itself is always
	// module-wide).
	Atomics []string
	// Ctxflow lists the packages whose blocking channel operations and
	// queue waits must honour an in-scope context.
	Ctxflow []string
	// Leaks lists the packages whose go statements must have a provable
	// shutdown edge.
	Leaks []string
	// Checks enables a subset of checks by name; nil enables all.
	Checks []string
}

// DefaultConfig returns the repo's invariant map for the module at
// modulePath (the groups named in ISSUE 5 / docs/ARCHITECTURE.md).
func DefaultConfig(modulePath string) Config {
	p := func(rel string) string { return modulePath + "/" + rel }
	return Config{
		Deterministic: []string{p("internal/sim"), p("internal/machine"), p("internal/sched"), p("internal/analytic")},
		WallClock:     []string{p("internal/core")},
		Locking:       []string{p("internal/core"), p("internal/pool")},
		ExporterPkgs:  []string{p("internal/telemetry"), p("internal/forensics"), p("internal/stats")},
		EventTypes:    []string{p("internal/telemetry") + ".Event"},
		SpanPkgs:      []string{modulePath, p("internal/core"), p("internal/pool")},
		SpanTracePkg:  p("internal/spantrace"),
		WatchdogPkg:   p("internal/watchdog"),
		BundlePkg:     p("internal/bundle"),
		CmdPkgs:       []string{modulePath + "/cmd"},
		CLIPkg:        p("internal/cli"),
		Atomics:       []string{modulePath},
		Ctxflow:       []string{p("internal/core"), p("internal/pool"), p("internal/serve")},
		Leaks:         []string{p("internal/serve"), p("internal/pool"), p("internal/watchdog"), p("internal/livemetrics"), p("internal/core"), p("internal/daemon"), p("internal/slo")},
	}
}

// enabled reports whether the named check is selected by cfg.Checks.
func (c Config) enabled(name string) bool {
	if len(c.Checks) == 0 {
		return true
	}
	for _, n := range c.Checks {
		if n == name {
			return true
		}
	}
	return false
}

// hasPathPrefix reports whether pkg path is prefix or below it.
func hasPathPrefix(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}

func matchesAny(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if hasPathPrefix(path, p) {
			return true
		}
	}
	return false
}

// A Check is one analyzer.
type Check struct {
	// Name is the short identifier used in output, -checks selection
	// and //lint:allow directives.
	Name string
	// Doc is the one-line catalog description.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Checks is the suite's catalog, in output order.
func Checks() []*Check {
	return []*Check{determinismCheck, lockingCheck, atomicsCheck, ctxflowCheck, leaksCheck, telemetryCheck, hygieneCheck}
}

// CheckNames returns the catalog's names, for flag validation.
func CheckNames() []string {
	var out []string
	for _, c := range Checks() {
		out = append(out, c.Name)
	}
	return out
}

// Pass carries one check's view of one package.
type Pass struct {
	Cfg   Config
	Mod   *Module
	Pkg   *Package
	check string
	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Check:   p.check,
		Pos:     p.Mod.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// objectOf resolves an identifier's use or definition.
func (p *Pass) objectOf(id *ast.Ident) types.Object {
	if o := p.Pkg.Info.Uses[id]; o != nil {
		return o
	}
	return p.Pkg.Info.Defs[id]
}

// Run executes the enabled checks over pkgs, applies //lint:allow
// suppression, and returns all diagnostics (suppressed ones included,
// flagged) sorted by position.
func Run(m *Module, pkgs []*Package, cfg Config) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, c := range Checks() {
			if !cfg.enabled(c.Name) {
				continue
			}
			pass := &Pass{Cfg: cfg, Mod: m, Pkg: pkg, check: c.Name, diags: &diags}
			c.Run(pass)
		}
		diags = append(diags, directiveDiagnostics(m, pkg)...)
	}
	applySuppressions(m, pkgs, diags)
	sortDiagnostics(diags)
	return diags
}

// sortDiagnostics imposes the suite's total output order — file, line,
// column, check name, then message. The order is total (no two
// distinct findings compare equal on all five keys without being
// interchangeable), so the report is byte-stable regardless of package
// iteration order — the precondition for diffing SARIF output in CI.
func sortDiagnostics(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

// Merge combines two diagnostic streams into one report in the
// suite's total order.
func Merge(a, b []Diagnostic) []Diagnostic {
	out := make([]Diagnostic, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sortDiagnostics(out)
	return out
}

// Unsuppressed counts the findings that gate (everything not matched
// by a reasoned allow directive).
func Unsuppressed(diags []Diagnostic) int {
	n := 0
	for _, d := range diags {
		if !d.Suppressed {
			n++
		}
	}
	return n
}
