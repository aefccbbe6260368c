package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/flow"
)

// Lifecycle is the must-release analyzer over the PR 7–9 resource
// surfaces: a value acquired from a constructor-shaped call whose type
// carries a release method (Close, Flush, PageOut, or an unexported
// close in the same package) must reach a release — or an explicit
// ownership transfer — on every exit path of the acquiring function,
// including the early `return err` branches the happy-path test suite
// never takes. The targets are the handles the out-of-core work
// introduced: paged relations (relation.Options.PageColumns mappings)
// and runstate.Checkpointer state. partition.Cache keeps a Close that
// purges its entries, so a cache a function creates is tracked too.
//
// Tracking is deliberately narrow so `make lint` stays quiet on correct
// code:
//
//   - an acquisition is a fresh local (`x := New...(...)` or
//     `x, err := Open...(...)`) whose callee name starts with New, Open,
//     Create, Map, or Enable and whose result type has a release method;
//   - the `if err != nil` companion branch of a two-value acquisition is
//     exempt — the resource is invalid there by Go convention;
//   - any ownership transfer ends tracking: returning x, assigning it to
//     a field, index, global or another variable, passing it as a call
//     argument, capturing it in a closure or composite literal, sending
//     it on a channel, or deferring anything that mentions it;
//   - panic/os.Exit paths are terminal, not exits: crash paths do not
//     demand a release.
//
// What remains — an exit path reached while the acquisition is still
// owned and unreleased — is a leak.
var Lifecycle = &Analyzer{
	Name: "lifecycle",
	Doc:  "values with Close/Flush/PageOut must be released or transferred on every exit path",
	Run:  runLifecycle,
}

// releaseMethods are the method names that count as releasing a
// resource. The unexported close covers in-package handles like
// relation's pagerState.
var releaseMethods = map[string]bool{
	"Close": true, "Flush": true, "PageOut": true, "close": true,
}

// acquirePrefixes shape the constructor names tracking starts at.
var acquirePrefixes = []string{"New", "Open", "Create", "Map", "Enable", "new", "open", "create"}

func runLifecycle(pass *Pass) {
	for _, pkg := range pass.Module.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkLifecycleFunc(pass, pkg, fd)
			}
		}
	}
}

// acquisition is one tracked resource obligation.
type acquisition struct {
	stmt   ast.Stmt     // the acquiring statement
	obj    types.Object // the resource variable
	errObj types.Object // the companion error variable, nil for 1-value
	callee string       // for the message
}

func checkLifecycleFunc(pass *Pass, pkg *Package, fd *ast.FuncDecl) {
	info := pkg.Info
	g := flow.Build(fd.Body, info)

	// Collect acquisitions: fresh locals bound to a constructor call
	// whose type has a release method.
	var acqs []acquisition
	for _, blk := range g.Blocks {
		for _, s := range blk.Stmts {
			if a, ok := lifecycleAcquisition(pkg, info, s); ok {
				acqs = append(acqs, a)
			}
		}
	}
	for _, a := range acqs {
		checkAcquisition(pass, pkg, g, a)
	}
}

// lifecycleAcquisition recognizes `x := call(...)` / `x, err := call(...)`
// (and the var-decl spellings) as a tracked acquisition.
func lifecycleAcquisition(pkg *Package, info *types.Info, s ast.Stmt) (acquisition, bool) {
	var lhs []ast.Expr
	var rhs ast.Expr
	switch st := s.(type) {
	case *ast.AssignStmt:
		if st.Tok != token.DEFINE || len(st.Rhs) != 1 {
			return acquisition{}, false
		}
		lhs, rhs = st.Lhs, st.Rhs[0]
	case *ast.DeclStmt:
		gd, ok := st.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR || len(gd.Specs) != 1 {
			return acquisition{}, false
		}
		vs, ok := gd.Specs[0].(*ast.ValueSpec)
		if !ok || len(vs.Values) != 1 {
			return acquisition{}, false
		}
		for _, n := range vs.Names {
			lhs = append(lhs, n)
		}
		rhs = vs.Values[0]
	default:
		return acquisition{}, false
	}
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(lhs) == 0 || len(lhs) > 2 {
		return acquisition{}, false
	}
	obj := calleeFuncObj(info, call)
	if obj == nil || !hasAcquirePrefix(obj.Name()) {
		return acquisition{}, false
	}
	resID, ok := ast.Unparen(lhs[0]).(*ast.Ident)
	if !ok || resID.Name == "_" {
		return acquisition{}, false
	}
	resObj := info.Defs[resID]
	if resObj == nil {
		return acquisition{}, false
	}
	if !hasReleaseMethod(pkg, resObj.Type()) {
		return acquisition{}, false
	}
	a := acquisition{stmt: s, obj: resObj, callee: funcName(info, call)}
	if len(lhs) == 2 {
		if errID, ok := ast.Unparen(lhs[1]).(*ast.Ident); ok && errID.Name != "_" {
			// := defines a fresh err, but assigns over a named result
			// already in scope — the companion lives in Uses then.
			eo := info.Defs[errID]
			if eo == nil {
				eo = info.Uses[errID]
			}
			if eo != nil && isErrorType(eo.Type()) {
				a.errObj = eo
			}
		}
	}
	return a, true
}

func hasAcquirePrefix(name string) bool {
	for _, p := range acquirePrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// hasReleaseMethod reports whether t (or *t / its pointee) declares one
// of the release methods. Unexported close only counts for types of the
// package under inspection.
func hasReleaseMethod(pkg *Package, t types.Type) bool {
	for _, typ := range []types.Type{t, types.NewPointer(t)} {
		ms := types.NewMethodSet(typ)
		for i := 0; i < ms.Len(); i++ {
			m := ms.At(i).Obj()
			if !releaseMethods[m.Name()] {
				continue
			}
			if !m.Exported() && (m.Pkg() == nil || pkg.Types == nil || m.Pkg() != pkg.Types) {
				continue
			}
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// use classifies how a statement touches the tracked resource.
type use int

const (
	useNone     use = iota
	useReleased     // released, transferred, overwritten, or deferred away
	useLeakable     // plain read: tracking continues
)

// checkAcquisition walks every path from the acquisition to the exits,
// reporting the first exit reached while the obligation is live.
func checkAcquisition(pass *Pass, pkg *Package, g *flow.Graph, a acquisition) {
	info := pkg.Info
	// Locate the acquisition inside its block.
	var start *flow.Block
	startIdx := -1
	for _, blk := range g.Blocks {
		for i, s := range blk.Stmts {
			if s == a.stmt {
				start, startIdx = blk, i
				break
			}
		}
		if start != nil {
			break
		}
	}
	if start == nil {
		return
	}

	visited := make(map[*flow.Block]bool)
	var leakExit ast.Stmt

	var walk func(blk *flow.Block, from int) bool // true = leak found
	walk = func(blk *flow.Block, from int) bool {
		for i := from; i < len(blk.Stmts); i++ {
			s := blk.Stmts[i]
			if blk == start && i == startIdx {
				continue // the acquisition itself
			}
			if s == a.stmt {
				return false // looped back: the obligation rebinds
			}
			if classifyUse(info, s, a.obj) == useReleased {
				return false
			}
			if _, ok := s.(*ast.ReturnStmt); ok {
				leakExit = s
				return true
			}
		}
		if blk.Terminal {
			return false // panic/os.Exit path: crash, not an exit
		}
		if blk.Exit && blk.Return == nil {
			return true // fall-off-the-end exit
		}
		for _, e := range blk.Succs {
			if exemptEdge(info, e, a.errObj) {
				continue
			}
			if visited[e.To] {
				continue
			}
			visited[e.To] = true
			if walk(e.To, 0) {
				return true
			}
		}
		return false
	}

	if walk(start, startIdx) {
		where := "the end of the function"
		if leakExit != nil {
			p := pass.Module.Fset.Position(leakExit.Pos())
			where = fmt.Sprintf("the return on line %d", p.Line)
		}
		pass.Reportf(a.stmt.Pos(),
			"%s acquired from %s is not released (Close/Flush/PageOut) or transferred on the exit path at %s",
			a.obj.Name(), a.callee, where)
	}
}

// exemptEdge reports whether the edge is the error-companion branch of
// the acquisition: the true edge of `err != nil` (or the false edge of
// `err == nil`) for the acquisition's own err variable, where the
// resource is invalid by convention.
func exemptEdge(info *types.Info, e flow.Edge, errObj types.Object) bool {
	if errObj == nil || e.Cond == nil {
		return false
	}
	bin, ok := ast.Unparen(e.Cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	var id *ast.Ident
	var other ast.Expr
	if x, ok := ast.Unparen(bin.X).(*ast.Ident); ok && info.Uses[x] == errObj {
		id, other = x, bin.Y
	} else if y, ok := ast.Unparen(bin.Y).(*ast.Ident); ok && info.Uses[y] == errObj {
		id, other = y, bin.X
	}
	if id == nil || !isNilIdent(info, other) {
		return false
	}
	switch {
	case bin.Op == token.NEQ && e.Branch == flow.True:
		return true
	case bin.Op == token.EQL && e.Branch == flow.False:
		return true
	}
	return false
}

func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil || id.Name == "nil"
}

// classifyUse inspects one statement for the tracked object: a release
// method call, any ownership transfer, or an overwrite all end tracking
// (useReleased); other mentions are benign reads.
func classifyUse(info *types.Info, s ast.Stmt, obj types.Object) use {
	released := false

	// Defers that mention x release it function-wide (defer x.Close(),
	// defer cleanup closures); so do go statements (ownership moved to
	// the goroutine).
	switch st := s.(type) {
	case *ast.DeferStmt:
		if mentionsObj(info, st.Call, obj) {
			return useReleased
		}
		return useNone
	case *ast.GoStmt:
		if mentionsObj(info, st.Call, obj) {
			return useReleased
		}
		return useNone
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			if mentionsObj(info, r, obj) {
				return useReleased // transferred to the caller
			}
		}
		return useNone
	case *ast.SendStmt:
		if mentionsObj(info, st.Value, obj) {
			return useReleased // transferred through the channel
		}
		return useNone
	case *ast.AssignStmt:
		for _, l := range st.Lhs {
			if id, ok := ast.Unparen(l).(*ast.Ident); ok {
				if info.Uses[id] == obj || info.Defs[id] == obj {
					return useReleased // overwritten: obligation rebinds
				}
			}
		}
		for _, r := range st.Rhs {
			if aliasOrEscape(info, r, obj) {
				return useReleased
			}
			if isReleaseCall(info, r, obj) {
				released = true
			}
		}
		if released {
			return useReleased
		}
		// Assigning x (or &x, x.f) anywhere on an LHS selector/index
		// means it escaped earlier; plain reads elsewhere are benign.
		return useNone
	}

	// General expression walk: release calls, escapes as call args,
	// closure captures, composite literals.
	escaped := false
	ast.Inspect(s, func(n ast.Node) bool {
		if released || escaped {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if isReleaseCallExpr(info, x, obj) {
				released = true
				return false
			}
			for _, arg := range x.Args {
				if mentionsObj(info, arg, obj) {
					escaped = true // passed away: ownership transferred
					return false
				}
			}
		case *ast.FuncLit:
			if mentionsObj(info, x, obj) {
				escaped = true // captured
			}
			return false
		case *ast.CompositeLit:
			if mentionsObj(info, x, obj) {
				escaped = true
			}
			return false
		case *ast.UnaryExpr:
			if x.Op == token.AND && mentionsObj(info, x.X, obj) {
				escaped = true
				return false
			}
		}
		return true
	})
	if released || escaped {
		return useReleased
	}
	return useNone
}

// aliasOrEscape reports whether the RHS expression hands x to another
// owner: a bare alias (y = x), a call argument, a closure capture or a
// composite literal.
func aliasOrEscape(info *types.Info, e ast.Expr, obj types.Object) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[x] == obj
	case *ast.UnaryExpr:
		return x.Op == token.AND && mentionsObj(info, x.X, obj)
	case *ast.FuncLit, *ast.CompositeLit:
		return mentionsObj(info, x, obj)
	case *ast.CallExpr:
		if isReleaseCallExpr(info, x, obj) {
			return false
		}
		for _, arg := range x.Args {
			if mentionsObj(info, arg, obj) {
				return true
			}
		}
	}
	return false
}

// isReleaseCall reports whether e is x.Close()/x.Flush()/x.PageOut()/
// x.close() for the tracked x.
func isReleaseCall(info *types.Info, e ast.Expr, obj types.Object) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	return ok && isReleaseCallExpr(info, call, obj)
}

func isReleaseCallExpr(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !releaseMethods[sel.Sel.Name] {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && info.Uses[id] == obj
}

// mentionsObj reports whether the expression tree uses obj anywhere.
func mentionsObj(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		if id, ok := x.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
			return false
		}
		return true
	})
	return found
}
