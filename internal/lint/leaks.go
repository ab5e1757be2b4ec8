package lint

import (
	"go/ast"
	"go/types"
)

// leaksCheck enforces goroutine-lifecycle hygiene in the long-running
// service packages (internal/serve, internal/pool, internal/watchdog,
// internal/livemetrics, internal/core, internal/daemon, and
// internal/slo, whose Every loop ticks the detectors): every `go`
// statement must have a provable shutdown edge, so that Close() really
// drains the process instead of stranding workers.
//
// The proof obligation is structural, on the spawned body's CFG: some
// path from entry must reach exit. A dispatcher that ranges over a
// closable channel, a sampler whose select has a stop-channel or
// ctx.Done() arm that returns, and a bounded helper that simply runs
// to completion all satisfy it; a `for {}` service loop with no
// escape, which no WaitGroup.Wait can ever collect, does not. Bodies
// the analyzer cannot see — a goroutine spawned on an interface method
// or a cross-package function — are flagged too, and carry a reasoned
// //lint:allow leaks stating the drain contract.
//
// The check is deliberately about termination, not about who waits:
// WaitGroup pairing makes Close block until the exit happens, but only
// a reachable exit makes that wait finite. Pair both (the engine's
// workers do) and shutdown is airtight.
var leaksCheck = &Check{
	Name: "leaks",
	Doc:  "require every go statement in the service packages to have a provable shutdown edge (a CFG path to exit)",
	Run:  runLeaks,
}

func runLeaks(p *Pass) {
	if !matchesAny(p.Pkg.Path, p.Cfg.Leaks) {
		return
	}
	decls := packageFuncDecls(p.Pkg)
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body, desc := goBody(p, decls, gs)
			if body == nil {
				p.Reportf(gs.Pos(), "goroutine body (%s) is outside this analysis: cannot prove a shutdown edge (annotate with the drain contract)", desc)
				return true
			}
			g := BuildCFG(body)
			if !g.reachable()[g.Exit] {
				p.Reportf(gs.Pos(), "goroutine has no shutdown edge: no path from its loop to exit (add a stop-channel/ctx.Done() arm that returns, range over a channel closed on shutdown, or bound the loop)")
			}
			return true
		})
	}
}

// packageFuncDecls maps each function object declared in the package
// to its syntax, so goroutines spawned on named functions and methods
// can be analyzed through the call.
func packageFuncDecls(pkg *Package) map[*types.Func]*ast.FuncDecl {
	out := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					out[fn] = fd
				}
			}
		}
	}
	return out
}

// goBody resolves the body a go statement will run: a function
// literal's own body, or the declaration of a same-package function or
// method. The second return describes the callee when no body is
// available.
func goBody(p *Pass, decls map[*types.Func]*ast.FuncDecl, gs *ast.GoStmt) (*ast.BlockStmt, string) {
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		return fun.Body, ""
	case *ast.Ident:
		if fn, ok := p.objectOf(fun).(*types.Func); ok {
			if fd := decls[fn]; fd != nil {
				return fd.Body, ""
			}
			return nil, fn.FullName()
		}
	case *ast.SelectorExpr:
		if fn, ok := p.objectOf(fun.Sel).(*types.Func); ok {
			if fd := decls[fn]; fd != nil {
				return fd.Body, ""
			}
			return nil, fn.FullName()
		}
	}
	return nil, "dynamic call"
}
