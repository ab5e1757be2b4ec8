package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// telemetryCheck enforces the observability layer's conventions:
// exporter and sink errors are never dropped — a trace that silently
// truncated is worse than no trace, because the forensics and
// perf-lab tooling would attribute costs from a partial stream —
// every emitted telemetry.Event carries an explicit Step, since the
// per-step invariant verifier (tracecheck) and the per-phase metrics
// series both key on it, every span collection started in the
// span-emitting packages is sealed before the function returns, and
// every armed anomaly detector has a bundle capture wired to it.
var telemetryCheck = &Check{
	Name: "telemetry",
	Doc:  "forbid discarded exporter/sink errors, Event literals without an explicit Step field, unsealed span collections, and watchdogs armed without bundle capture",
	Run:  runTelemetry,
}

func runTelemetry(p *Pass) {
	spanPkg := false
	for _, path := range p.Cfg.SpanPkgs {
		if p.Pkg.Path == path {
			spanPkg = true
		}
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
					p.checkDiscardedError(call)
				}
			case *ast.DeferStmt:
				p.checkDiscardedError(n.Call)
			case *ast.GoStmt:
				p.checkDiscardedError(n.Call)
			case *ast.CompositeLit:
				p.checkEventLiteral(n)
			case *ast.FuncDecl:
				if spanPkg {
					p.checkSpanBalance(n)
				}
				p.checkTriageWiring(n)
			}
			return true
		})
	}
}

// checkDiscardedError flags a statement-position call into an exporter
// package whose error result is dropped on the floor.
func (p *Pass) checkDiscardedError(call *ast.CallExpr) {
	fn := calleeFunc(p, call)
	if fn == nil || fn.Pkg() == nil || !matchesAny(fn.Pkg().Path(), p.Cfg.ExporterPkgs) {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	if named, ok := last.(*types.Named); !ok || named.Obj().Name() != "error" || named.Obj().Pkg() != nil {
		return
	}
	p.Reportf(call.Pos(), "%s.%s returns an error that is discarded: exporter/sink errors must be checked", fn.Pkg().Name(), fn.Name())
}

// calleeFunc resolves a call's static callee, if it is a plain
// function or method reference.
func calleeFunc(p *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.objectOf(fun).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.objectOf(fun.Sel).(*types.Func)
		return fn
	}
	return nil
}

// checkSpanBalance enforces span hygiene in the span-emitting packages
// (Config.SpanPkgs): a function that starts a span collection
// (Tracer.StartSubmission) must seal it — call Active.End or
// Active.Abandon, directly or in a defer — and must not return between
// the start and the first seal. An unsealed collection leaks its spans
// and its trace ID: the /metrics exemplar pointing at it would resolve
// to nothing. The rule is lexical, so conditional seals pass as long
// as they sit before every return (the shape pool.Observed uses:
// execute, then one seal block, then the returns).
func (p *Pass) checkSpanBalance(fd *ast.FuncDecl) {
	if fd.Body == nil {
		return
	}
	var start, seal token.Pos
	var returns []*ast.ReturnStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch {
			case p.isSpanTraceMethod(n, "Tracer", "StartSubmission"):
				if !start.IsValid() {
					start = n.Pos()
				}
			case p.isSpanTraceMethod(n, "Active", "End"), p.isSpanTraceMethod(n, "Active", "Abandon"):
				if !seal.IsValid() {
					seal = n.Pos()
				}
			}
		case *ast.ReturnStmt:
			returns = append(returns, n)
		}
		return true
	})
	if !start.IsValid() {
		return
	}
	if !seal.IsValid() || seal < start {
		p.Reportf(start, "StartSubmission result is never sealed: call End or Abandon before every return, or the span collection leaks open")
		return
	}
	for _, r := range returns {
		// A return whose own expression performs the seal
		// (`return at.End(...).TraceID`) ends after the seal position
		// and is fine; only returns wholly before the seal leak.
		if start < r.Pos() && r.End() < seal {
			p.Reportf(r.Pos(), "return between StartSubmission and its End/Abandon seal: this path leaks the span collection open")
		}
	}
}

// checkTriageWiring enforces the auto-triage convention, module-wide:
// a function that arms an anomaly detector (watchdog.New) must also
// wire its firings to a diagnostic-bundle capture — call
// bundle.Attach, or drive Capturer.Capture itself — or a detector
// trigger evaporates into a log line with no profile, frozen flight
// trace, or exemplar spans to triage from. Like the span-balance rule
// this is lexical: an Attach behind a "bundles enabled?" conditional
// in the same function counts, because the wiring decision is then
// visibly local rather than forgotten.
func (p *Pass) checkTriageWiring(fd *ast.FuncDecl) {
	if p.Cfg.WatchdogPkg == "" || p.Cfg.BundlePkg == "" || fd.Body == nil {
		return
	}
	var armed token.Pos
	wired := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(p, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case p.Cfg.WatchdogPkg:
			if fn.Name() == "New" && !armed.IsValid() {
				armed = call.Pos()
			}
		case p.Cfg.BundlePkg:
			if fn.Name() == "Attach" || fn.Name() == "Capture" {
				wired = true
			}
		}
		return true
	})
	if armed.IsValid() && !wired {
		p.Reportf(armed, "watchdog.New without a bundle capture wired: call bundle.Attach (or Capturer.Capture) in the same function so firings produce a diagnostic bundle, not just a log line")
	}
}

// isSpanTraceMethod reports whether call's static callee is the named
// method on the named receiver type of the configured span-trace
// package.
func (p *Pass) isSpanTraceMethod(call *ast.CallExpr, recvType, method string) bool {
	if p.Cfg.SpanTracePkg == "" {
		return false
	}
	fn := calleeFunc(p, call)
	if fn == nil || fn.Name() != method || fn.Pkg() == nil || fn.Pkg().Path() != p.Cfg.SpanTracePkg {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == recvType
}

// checkEventLiteral flags keyed composite literals of the configured
// event types that omit the Step field. Step 0 is a real phase, so the
// zero value is not a safe default: an event without an explicit step
// is almost always a copy-paste that will land in phase 0's bucket.
func (p *Pass) checkEventLiteral(lit *ast.CompositeLit) {
	tv, ok := p.Pkg.Info.Types[lit]
	if !ok {
		return
	}
	named, ok := tv.Type.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return
	}
	qualified := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	found := false
	for _, want := range p.Cfg.EventTypes {
		if qualified == want {
			found = true
			break
		}
	}
	if !found || len(lit.Elts) == 0 {
		return
	}
	keyed := false
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			return // positional literal names every field, Step included
		}
		keyed = true
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Step" {
			return
		}
	}
	if keyed {
		short := qualified[strings.LastIndex(qualified, "/")+1:]
		p.Reportf(lit.Pos(), "%s literal without an explicit Step field: events must carry their program step", short)
	}
}
