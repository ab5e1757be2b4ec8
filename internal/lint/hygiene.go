package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// hygieneCheck enforces the public-surface conventions:
//
//   - command-line tools parse and validate flag values through the
//     internal/cli validators, so every tool names the offending flag
//     in identical diagnostics (PR 4's contract) — bare strconv
//     parsing and the unprefixed cli.Parse* helpers are flagged in
//     cmd/ packages;
//   - a cmd/ package declaring a listen-address flag (a flag.String /
//     StringVar whose name ends in "addr") must validate it with
//     cli.AddrFlag, so a bad -addr fails naming its flag instead of
//     surfacing as a confusing net.Listen bind error (the contract
//     loopserved and perflab serve follow);
//   - no new call sites of deprecated API: any identifier whose
//     declaration doc carries a "Deprecated:" paragraph is flagged
//     when used outside its declaring package (the migration note in
//     the doc says what to use instead).
var hygieneCheck = &Check{
	Name: "hygiene",
	Doc:  "route cmd/ flag parsing through internal/cli and forbid new uses of deprecated API",
	Run:  runHygiene,
}

// strconvParsers are the raw string-parsing entry points that bypass
// the flag-naming validators.
var strconvParsers = map[string]bool{
	"Atoi": true, "ParseInt": true, "ParseUint": true, "ParseFloat": true, "ParseBool": true,
}

func runHygiene(p *Pass) {
	deprecated := p.Mod.deprecatedIndex()
	inCmd := matchesAny(p.Pkg.Path, p.Cfg.CmdPkgs)
	// Listen-address flags are collected package-wide first: the
	// declaration and the cli.AddrFlag validation normally live in
	// different functions (flag setup vs. argument resolution), so the
	// rule is "a package declaring one must validate somewhere".
	var addrDecls []addrFlagDecl
	usesAddrFlag := false
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && inCmd {
				if name, ok := flagAddrDecl(p, call); ok {
					addrDecls = append(addrDecls, addrFlagDecl{pos: call.Pos(), name: name})
				}
			}
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := p.Pkg.Info.Uses[id]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() == p.Pkg.Path {
				return true
			}
			if key := objectKey(obj); deprecated[key] {
				p.Reportf(id.Pos(), "use of deprecated %s (its doc names the replacement)", key)
			}
			if inCmd {
				if fn, ok := obj.(*types.Func); ok {
					switch {
					case fn.Pkg().Path() == "strconv" && strconvParsers[fn.Name()]:
						p.Reportf(id.Pos(), "strconv.%s in a command: parse flag values through the internal/cli validators", fn.Name())
					case p.Cfg.CLIPkg != "" && fn.Pkg().Path() == p.Cfg.CLIPkg && fn.Name() == "AddrFlag":
						usesAddrFlag = true
					case p.Cfg.CLIPkg != "" && fn.Pkg().Path() == p.Cfg.CLIPkg && strings.HasPrefix(fn.Name(), "Parse"):
						p.Reportf(id.Pos(), "cli.%s does not name the offending flag: use the *Flag wrapper (e.g. cli.ProcsFlag)", fn.Name())
					}
				}
			}
			return true
		})
	}
	if !usesAddrFlag {
		for _, d := range addrDecls {
			p.Reportf(d.pos, "flag -%s looks like a listen address but the package never calls cli.AddrFlag: validate it so a bad value names its flag instead of failing inside net.Listen", d.name)
		}
	}
}

type addrFlagDecl struct {
	pos  token.Pos
	name string
}

// flagAddrDecl reports whether call declares a string flag whose name
// ends in "addr" (flag.String / flag.StringVar, top-level or on a
// *FlagSet), returning the flag's name.
func flagAddrDecl(p *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
		return "", false
	}
	nameArg := -1
	switch fn.Name() {
	case "String":
		nameArg = 0
	case "StringVar":
		nameArg = 1
	default:
		return "", false
	}
	if len(call.Args) <= nameArg {
		return "", false
	}
	lit, ok := call.Args[nameArg].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	name, err := strconv.Unquote(lit.Value)
	if err != nil || !strings.HasSuffix(strings.ToLower(name), "addr") {
		return "", false
	}
	return name, true
}

// objectKey is the stable cross-package identity used by the
// deprecated index: pkgpath.Name, with the receiver type inserted for
// methods (pkgpath.Type.Method).
func objectKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return obj.Name()
	}
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return obj.Pkg().Path() + "." + named.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// deprecatedIndex scans every loaded package (targets and
// dependencies) for declarations whose doc comment carries a
// "Deprecated:" paragraph, keyed by objectKey. The index is cached per
// loaded-package count: loading new packages (which may declare more
// deprecated API) invalidates it.
func (m *Module) deprecatedIndex() map[string]bool {
	if m.deprecated != nil && m.deprecatedAt == len(m.pkgs) {
		return m.deprecated
	}
	idx := map[string]bool{}
	for _, pkg := range m.Packages() {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if isDeprecated(d.Doc) {
						markDeprecated(idx, pkg, d.Name)
					}
				case *ast.GenDecl:
					declDoc := d.Doc
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							if isDeprecated(sp.Doc) || isDeprecated(declDoc) {
								markDeprecated(idx, pkg, sp.Name)
							}
						case *ast.ValueSpec:
							if isDeprecated(sp.Doc) || isDeprecated(declDoc) {
								for _, name := range sp.Names {
									markDeprecated(idx, pkg, name)
								}
							}
						}
					}
				}
			}
		}
	}
	m.deprecated, m.deprecatedAt = idx, len(m.pkgs)
	return idx
}

func markDeprecated(idx map[string]bool, pkg *Package, name *ast.Ident) {
	if obj := pkg.Info.Defs[name]; obj != nil {
		idx[objectKey(obj)] = true
	}
}

// isDeprecated reports whether a doc comment contains a line starting
// with the standard "Deprecated:" marker.
func isDeprecated(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, line := range strings.Split(doc.Text(), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "Deprecated:") {
			return true
		}
	}
	return false
}
