package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// StatsMerge guards the runtime's "counters survive parallelism" rule.
// The engine's fan-outs accumulate into per-worker scratch values —
// `ws := make([]scratch, pool.Workers())`, validators[w], locals[w] —
// that a merge loop (or a mergeStats function) folds together after
// Pool.Run returns. A counter added to the scratch type but not to the
// merge path compiles, passes the serial tests, and silently reports
// zero on parallel runs. Equally, an engine.RunStats counter that never
// reaches RunStats.String drops out of every -stats report.
//
// Two checks:
//
//  1. for every slice of per-worker scratch structs indexed by the worker
//     id inside a Pool.Run function literal, every integer
//     counter field of the scratch type that is incremented anywhere in
//     the module must be read by the enclosing package outside the
//     worker literal — the merge path;
//  2. every exported integer counter field of engine.RunStats must be
//     rendered by the RunStats.String report.
var StatsMerge = &Analyzer{
	Name: "statsmerge",
	Doc:  "per-worker counters must be merged after the pool fan-out, and RunStats counters must reach String()",
	Run:  runStatsMerge,
}

func runStatsMerge(pass *Pass) {
	incremented := incrementedFields(pass.Module)
	fieldRefs := fieldReferences(pass.Module)
	checkWorkerScratch(pass, incremented, fieldRefs)
	checkRunStatsString(pass)
}

// incrementedFields collects every struct field that is the target of a
// += / -= / ++ / -- anywhere in the module: the module's counters.
func incrementedFields(m *Module) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	mark := func(info *types.Info, e ast.Expr) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return
		}
		if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			out[s.Obj().(*types.Var)] = true
		}
	}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.AssignStmt:
					if st.Tok == token.ADD_ASSIGN || st.Tok == token.SUB_ASSIGN {
						for _, lhs := range st.Lhs {
							mark(pkg.Info, lhs)
						}
					}
				case *ast.IncDecStmt:
					mark(pkg.Info, st.X)
				}
				return true
			})
		}
	}
	return out
}

// fieldReferences maps each package to every struct-field selection it
// makes, with positions, so the merge check can ask "is field f touched
// in pkg outside the worker literal?".
func fieldReferences(m *Module) map[*Package]map[*types.Var][]token.Pos {
	out := make(map[*Package]map[*types.Var][]token.Pos)
	for _, pkg := range m.Pkgs {
		refs := make(map[*types.Var][]token.Pos)
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if s := pkg.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					v := s.Obj().(*types.Var)
					refs[v] = append(refs[v], sel.Pos())
				}
				return true
			})
		}
		out[pkg] = refs
	}
	return out
}

// workerFanout is one Pool.Run call with a worker-indexed function
// literal.
type workerFanout struct {
	pkg  *Package
	call *ast.CallExpr
	lit  *ast.FuncLit
	// scratch maps each worker-indexed slice's element struct to the
	// position of its first w-indexed use inside the literal.
	scratch map[*types.Named]token.Pos
}

func checkWorkerScratch(pass *Pass, incremented map[*types.Var]bool, fieldRefs map[*Package]map[*types.Var][]token.Pos) {
	fanouts := collectFanouts(pass.Module)

	// All worker-literal spans per package: reads inside any of them are
	// worker-side accumulation, not merging.
	litSpans := make(map[*Package][][2]token.Pos)
	for _, fo := range fanouts {
		litSpans[fo.pkg] = append(litSpans[fo.pkg], [2]token.Pos{fo.lit.Pos(), fo.lit.End()})
	}
	outsideLits := func(pkg *Package, p token.Pos) bool {
		for _, span := range litSpans[pkg] {
			if p >= span[0] && p < span[1] {
				return false
			}
		}
		return true
	}

	for _, fo := range fanouts {
		for named, usePos := range fo.scratch {
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			foreign := named.Obj().Pkg() != fo.pkg.Types
			for i := 0; i < st.NumFields(); i++ {
				fld := st.Field(i)
				if !isCounterType(fld.Type()) || !incremented[fld] {
					continue
				}
				if foreign && !fld.Exported() {
					continue // invisible to the using package's merge loop
				}
				merged := false
				for _, p := range fieldRefs[fo.pkg][fld] {
					if outsideLits(fo.pkg, p) {
						merged = true
						break
					}
				}
				if !merged {
					pass.Reportf(usePos,
						"per-worker counter %s.%s is accumulated in the fan-out but never merged after it",
						named.Obj().Name(), fld.Name())
				}
			}
		}
	}
}

// collectFanouts finds Run calls taking a worker function literal and
// the per-worker struct slices indexed inside it.
func collectFanouts(m *Module) []*workerFanout {
	var out []*workerFanout
	for _, pkg := range m.Pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || calleeName(call) != "Run" {
					return true
				}
				var lit *ast.FuncLit
				for _, arg := range call.Args {
					if fl, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
						lit = fl
					}
				}
				if lit == nil || lit.Type.Params == nil || len(lit.Type.Params.List) == 0 {
					return true
				}
				first := lit.Type.Params.List[0]
				if len(first.Names) == 0 {
					return true
				}
				wObj := info.Defs[first.Names[0]]
				if wObj == nil || !isCounterType(wObj.Type()) {
					return true
				}
				fo := &workerFanout{pkg: pkg, call: call, lit: lit, scratch: make(map[*types.Named]token.Pos)}
				ast.Inspect(lit.Body, func(n ast.Node) bool {
					ix, ok := n.(*ast.IndexExpr)
					if !ok {
						return true
					}
					id, ok := ast.Unparen(ix.Index).(*ast.Ident)
					if !ok || info.Uses[id] != wObj {
						return true
					}
					tv, ok := info.Types[ix.X]
					if !ok {
						return true
					}
					sl, ok := tv.Type.Underlying().(*types.Slice)
					if !ok {
						return true
					}
					elem := sl.Elem()
					if ptr, ok := elem.Underlying().(*types.Pointer); ok {
						elem = ptr.Elem()
					}
					named, ok := types.Unalias(elem).(*types.Named)
					if !ok {
						return true
					}
					if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
						return true
					}
					if _, seen := fo.scratch[named]; !seen {
						fo.scratch[named] = ix.Pos()
					}
					return true
				})
				if len(fo.scratch) > 0 {
					out = append(out, fo)
				}
				return true
			})
		}
	}
	return out
}

func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// isCounterType reports whether t is a plain integer type.
func isCounterType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// checkRunStatsString applies rule 2 to every module package named
// "engine" that declares a RunStats struct with a String method.
func checkRunStatsString(pass *Pass) {
	for _, pkg := range pass.Module.Pkgs {
		if pkg.Name != "engine" {
			continue
		}
		obj, ok := pkg.Types.Scope().Lookup("RunStats").(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := obj.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		var stringBody *ast.BlockStmt
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if ok && fd.Name.Name == "String" && fd.Recv != nil && recvIsType(pkg.Info, fd, named) {
					stringBody = fd.Body
				}
			}
		}
		if stringBody == nil {
			continue
		}
		used := make(map[types.Object]bool)
		ast.Inspect(stringBody, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if s := pkg.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					used[s.Obj()] = true
				}
			}
			return true
		})
		for i := 0; i < st.NumFields(); i++ {
			fld := st.Field(i)
			if !fld.Exported() || !isCounterType(fld.Type()) {
				continue
			}
			if !used[fld] {
				pass.Reportf(fld.Pos(),
					"RunStats.%s is a counter but is not rendered by RunStats.String — it would vanish from run reports", fld.Name())
			}
		}
	}
}

// recvIsType reports whether fd's receiver (possibly a pointer) is the
// named type.
func recvIsType(info *types.Info, fd *ast.FuncDecl, named *types.Named) bool {
	if len(fd.Recv.List) == 0 {
		return false
	}
	tv, ok := info.Types[fd.Recv.List[0].Type]
	if !ok {
		return false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return types.Identical(t, named)
}
