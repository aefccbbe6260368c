package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotAlloc enforces allocation discipline in the kernels that PR 3/4's
// benchmarks pinned: functions annotated `//fd:hotpath` in their doc
// comment run per cluster, per row or per candidate, and a stray
// fmt.Sprintf, map, closure or growing append re-introduces exactly the
// per-call garbage the flat-partition redesign removed (and that
// TestRefineAllocsPerRun-style tests only catch for the few
// functions they pin).
//
// Inside an annotated function the analyzer rejects:
//
//   - calls into package fmt;
//   - map construction (make(map...) or a map literal);
//   - function literals (closure allocation on every call);
//   - explicit conversions to an interface type (boxing);
//   - append to a plain local that is neither a parameter nor
//     preallocated with an explicit make length/capacity — scratch
//     fields (sc.buf) and reslices stay allowed.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "//fd:hotpath functions must not call fmt, build maps/closures, box to interfaces or grow unsized locals",
	Run:  runHotAlloc,
}

// hotpathDirective marks a function as a hot kernel.
const hotpathDirective = "//fd:hotpath"

func runHotAlloc(pass *Pass) {
	for _, pkg := range pass.Module.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if ok && fd.Body != nil && isHotpath(fd) {
					checkHotFunc(pass, pkg, fd)
				}
			}
		}
	}
}

func isHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == hotpathDirective {
			return true
		}
	}
	return false
}

func checkHotFunc(pass *Pass, pkg *Package, fd *ast.FuncDecl) {
	info := pkg.Info
	allowed := make(map[types.Object]bool) // params, receiver, preallocated locals

	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					allowed[obj] = true
				}
			}
		}
	}
	collect(fd.Recv)
	collect(fd.Type.Params)

	// Pass 1: locals preallocated via make with an explicit length or
	// capacity are append targets in good standing.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				if i >= len(st.Lhs) {
					break
				}
				if id, ok := st.Lhs[i].(*ast.Ident); ok && isSizedMake(info, rhs) {
					if obj := info.Defs[id]; obj != nil {
						allowed[obj] = true
					} else if obj := info.Uses[id]; obj != nil {
						allowed[obj] = true
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range st.Names {
				if i < len(st.Values) && isSizedMake(info, st.Values[i]) {
					if obj := info.Defs[name]; obj != nil {
						allowed[obj] = true
					}
				}
			}
		}
		return true
	})

	// Pass 2: report violations.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(x.Pos(), "%s is //fd:hotpath but allocates a closure", fd.Name.Name)
			return false // the closure's own body is cold storage
		case *ast.CompositeLit:
			if tv, ok := info.Types[x]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(x.Pos(), "%s is //fd:hotpath but builds a map literal", fd.Name.Name)
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, info, fd, x, allowed)
		}
		return true
	})
}

func checkHotCall(pass *Pass, info *types.Info, fd *ast.FuncDecl, call *ast.CallExpr, allowed map[types.Object]bool) {
	// Explicit conversion to an interface type.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) {
			pass.Reportf(call.Pos(), "%s is //fd:hotpath but converts to interface type %s",
				fd.Name.Name, tv.Type.String())
		}
		return
	}

	if obj := calleeFuncObj(info, call); obj != nil {
		if pkg := obj.Pkg(); pkg != nil && pkg.Path() == "fmt" {
			pass.Reportf(call.Pos(), "%s is //fd:hotpath but calls fmt.%s", fd.Name.Name, obj.Name())
			return
		}
	}

	// Builtins: make(map...) and undisciplined append.
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return
	}
	if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	switch id.Name {
	case "make":
		if len(call.Args) > 0 {
			if tv, ok := info.Types[call.Args[0]]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(call.Pos(), "%s is //fd:hotpath but allocates a map", fd.Name.Name)
				}
			}
		}
	case "append":
		if len(call.Args) == 0 {
			return
		}
		dst, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
		if !ok {
			return // sc.buf, dst[i]: reused scratch is the idiom
		}
		obj := info.Uses[dst]
		if obj == nil || allowed[obj] {
			return
		}
		pass.Reportf(call.Pos(),
			"%s is //fd:hotpath but appends to %s, which is neither a parameter nor preallocated with make",
			fd.Name.Name, dst.Name)
	}
}

// isSizedMake reports whether e is make(T, n) or make(T, n, c) for a
// slice type — an allocation whose size the author chose explicitly.
func isSizedMake(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin || id.Name != "make" {
		return false
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok {
		return false
	}
	_, isSlice := tv.Type.Underlying().(*types.Slice)
	return isSlice
}
