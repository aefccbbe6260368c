// Package lint is fdvet's analysis driver: a pure-stdlib (go/parser,
// go/ast, go/types, go/token — no golang.org/x/tools) loader and analyzer
// framework that enforces the discovery runtime's unwritten invariants.
//
// The conventions PRs 1–4 introduced — contexts thread through every
// engine fan-out, fault sites come from the registered faults.Site
// constants, hot kernels stay allocation-lean, per-worker counters
// survive the merge paths, no callback runs under a cache mutex — are
// exactly the kind a compiler never checks and a refactor silently
// breaks. Each convention here is a repo-specific Analyzer producing
// file:line diagnostics under a stable name, so `make lint` (and the
// meta-test in self_test.go) turns them into machine-checked gates.
//
// A finding is suppressed by a directive comment on the offending line or
// on the line directly above it:
//
//	//fdvet:ignore <analyzer> <reason>
//
// The reason is mandatory; a bare ignore is itself reported. Analyzers
// examine only non-test files, so _test.go code may use private fault
// sites, background contexts and maps freely.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: an analyzer name, a position and a message.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	Package  string         `json:"package"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// Analyzer is one invariant check, run once over the whole loaded module
// so cross-package checks (declared fault sites vs. their hit sites, say)
// see everything at once.
type Analyzer struct {
	// Name is the stable identifier diagnostics carry and ignore
	// directives reference.
	Name string
	// Doc is a one-line description, shown by fdvet -list.
	Doc string
	// Run inspects the module and reports findings through the pass.
	Run func(*Pass)
}

// Pass hands an analyzer the loaded module and collects its findings.
type Pass struct {
	Module *Module
	name   string
	diags  *[]Diagnostic
	pkgOf  map[string]string // filename -> import path
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Module.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.name,
		Pos:      position,
		Package:  p.pkgOf[position.Filename],
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// filePackages maps every loaded file to the import path of its package,
// so diagnostics carry a package even when an analyzer reports through a
// position rather than a *Package.
func (m *Module) filePackages() map[string]string {
	out := make(map[string]string)
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			out[m.Fset.Position(f.Package).Filename] = pkg.Path
		}
	}
	return out
}

// All returns the analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		CtxFlow,
		FaultSite,
		HotAlloc,
		StatsMerge,
		LockSafe,
		Exhaustive,
		SnapVersion,
		Lifecycle,
		ShardPure,
		AtomicField,
		ErrFlow,
	}
}

// ByName resolves a comma-separated analyzer list against All; unknown
// names are an error.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run loads the module rooted at dir and applies the analyzers, returning
// the surviving (non-suppressed) diagnostics sorted by position. The
// returned error reports loading or type-checking failures, not findings.
func Run(dir string, analyzers []*Analyzer) ([]Diagnostic, error) {
	m, err := Load(dir)
	if err != nil {
		return nil, err
	}
	return RunModule(m, analyzers), nil
}

// RunModule applies the analyzers to an already-loaded module.
func RunModule(m *Module, analyzers []*Analyzer) []Diagnostic {
	pkgOf := m.filePackages()
	var diags []Diagnostic
	for _, a := range analyzers {
		a.Run(&Pass{Module: m, name: a.Name, diags: &diags, pkgOf: pkgOf})
	}
	ignores, bad := m.ignoreDirectives()
	diags = append(diags, bad...)
	kept := diags[:0]
	for _, d := range diags {
		if ignores.covers(d) {
			continue
		}
		kept = append(kept, d)
	}
	sortDiagnostics(kept)
	return kept
}

// sortDiagnostics orders findings by (package, file, line, col,
// analyzer) — the stable order -json output is pinned to.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].Package != ds[j].Package {
			return ds[i].Package < ds[j].Package
		}
		if ds[i].File != ds[j].File {
			return ds[i].File < ds[j].File
		}
		if ds[i].Line != ds[j].Line {
			return ds[i].Line < ds[j].Line
		}
		if ds[i].Col != ds[j].Col {
			return ds[i].Col < ds[j].Col
		}
		return ds[i].Analyzer < ds[j].Analyzer
	})
}

// ignoreSet maps file → line → the analyzers an //fdvet:ignore directive
// there names. A directive on line L suppresses findings on L and L+1, so
// it works both trailing the offending line and standing alone above it.
type ignoreSet map[string]map[int][]string

func (s ignoreSet) covers(d Diagnostic) bool {
	lines := s[d.File]
	for _, l := range [2]int{d.Line, d.Line - 1} {
		for _, a := range lines[l] {
			if a == d.Analyzer || a == "all" {
				return true
			}
		}
	}
	return false
}

const ignorePrefix = "//fdvet:ignore"

// ignoreDirectives scans every file's comments for //fdvet:ignore
// directives. A malformed directive (no analyzer or no reason) comes back
// as a diagnostic of the pseudo-analyzer "fdvet" and suppresses nothing,
// so it cannot silently fail to suppress.
func (m *Module) ignoreDirectives() (ignoreSet, []Diagnostic) {
	set := make(ignoreSet)
	var bad []Diagnostic
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, ignorePrefix)
					if !ok {
						continue
					}
					pos := m.Fset.Position(c.Pos())
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						bad = append(bad, Diagnostic{
							Analyzer: "fdvet",
							Pos:      pos, Package: pkg.Path,
							File: pos.Filename, Line: pos.Line, Col: pos.Column,
							Message: "malformed ignore directive: want //fdvet:ignore <analyzer> <reason>",
						})
						continue
					}
					lines := set[pos.Filename]
					if lines == nil {
						lines = make(map[int][]string)
						set[pos.Filename] = lines
					}
					lines[pos.Line] = append(lines[pos.Line], fields[0])
				}
			}
		}
	}
	return set, bad
}

// --- shared type helpers used by several analyzers ---

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// calleeFuncObj resolves a call's callee to its types.Object (func, var,
// or nil for builtins and type conversions).
func calleeFuncObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil {
			return sel.Obj()
		}
		return info.Uses[fun.Sel]
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			return info.Uses[id]
		}
		if se, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			return info.Uses[se.Sel]
		}
	case *ast.IndexListExpr:
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			return info.Uses[id]
		}
		if se, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			return info.Uses[se.Sel]
		}
	}
	return nil
}

// calleeSignature returns the signature a call invokes, or nil for type
// conversions and builtins.
func calleeSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// funcName renders a call's callee for messages ("pkg.Fn", "recv.Method",
// or the expression text as a fallback).
func funcName(info *types.Info, call *ast.CallExpr) string {
	if obj := calleeFuncObj(info, call); obj != nil {
		if pkg := obj.Pkg(); pkg != nil {
			if _, ok := obj.(*types.Func); ok {
				return pkg.Name() + "." + obj.Name()
			}
		}
		return obj.Name()
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return exprString(fun)
	}
	return "function"
}

// exprString renders simple receiver chains (a.b.c) for messages and
// mutex keys; other expressions render as a placeholder.
func exprString(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.CallExpr:
		return exprString(x.Fun) + "()"
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	}
	return "?"
}
