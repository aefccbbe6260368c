package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicField enforces atomic-access discipline on the counters the
// concurrent subsystems lean on — the faults registry pointer, the pool
// attempt/retry/shard counters, the cache hit/miss/eviction counters
// and the RunStats fold sites:
//
//   - a field of one of the sync/atomic types (atomic.Int64,
//     atomic.Bool, atomic.Pointer[T], ...) must only be used as a
//     method receiver or have its address taken — assigning over it or
//     copying it by value tears the atomicity;
//   - the package-level sync/atomic functions (atomic.AddInt64,
//     atomic.LoadPointer, ...) are not called at all. They drive plain
//     fields, which nothing stops a later edit from reading plainly,
//     and a plain int64 has no 8-byte alignment on 32-bit platforms;
//     the typed values embed align64 and admit only atomic access.
var AtomicField = &Analyzer{
	Name: "atomicfield",
	Doc:  "sync/atomic-typed fields are used only through their methods or address; no package-level sync/atomic calls",
	Run:  runAtomicField,
}

func runAtomicField(pass *Pass) {
	for _, pkg := range pass.Module.Pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkAtomicCalls(pass, info, fd.Body)
				checkAtomicAccess(pass, info, fd.Body)
			}
		}
	}
}

// checkAtomicCalls reports every call of a package-level sync/atomic
// function; methods of the sync/atomic types are the sanctioned API.
func checkAtomicCalls(pass *Pass, info *types.Info, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, ok := calleeFuncObj(info, call).(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
			return true
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
			pass.Reportf(call.Pos(), "call to atomic.%s drives a plain value; use a sync/atomic type (atomic.Int64, ...) and its methods",
				fn.Name())
		}
		return true
	})
}

// checkAtomicAccess reports sync/atomic-typed fields used other than as
// a method receiver (x.f.Load()) or by address (&x.f): assigning over
// the field or copying it by value tears the atomicity. Parents are
// tracked during the walk to classify each selector's use.
func checkAtomicAccess(pass *Pass, info *types.Info, body *ast.BlockStmt) {
	parentOK := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, l := range x.Lhs {
				if sel, ok := ast.Unparen(l).(*ast.SelectorExpr); ok {
					if fv := fieldOf(info, sel); fv != nil && isSyncAtomicType(fv.Type()) {
						pass.Reportf(l.Pos(), "field %s has type %s; access it through its methods, not by assignment",
							fv.Name(), fv.Type().String())
						parentOK[sel] = true // reported once; skip the copy pass
					}
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if sel, ok := ast.Unparen(x.X).(*ast.SelectorExpr); ok {
					parentOK[sel] = true // &x.f: pointer use is fine
				}
			}
		case *ast.SelectorExpr:
			// x.f.Method: the inner selector is a receiver.
			if inner, ok := ast.Unparen(x.X).(*ast.SelectorExpr); ok {
				if s := info.Selections[x]; s != nil && s.Kind() == types.MethodVal {
					parentOK[inner] = true
				}
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || parentOK[sel] {
			return true
		}
		fv := fieldOf(info, sel)
		if fv == nil || !isSyncAtomicType(fv.Type()) {
			return true
		}
		pass.Reportf(sel.Pos(), "field %s has type %s; copying it by value tears the atomicity — use its methods",
			fv.Name(), fv.Type().String())
		return true
	})
}

// fieldOf returns the struct field a selector resolves to, or nil for
// methods, package selectors and locals.
func fieldOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
	}
	return nil
}

// isSyncAtomicType reports whether t is one of sync/atomic's value
// types (Int32, Int64, Uint32, Uint64, Uintptr, Bool, Pointer[T],
// Value).
func isSyncAtomicType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}
