package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ShardPure enforces the phase-1 shard-kernel contract: functions
// annotated `//fd:shardkernel` in their doc comment (the bodies pool
// workers run: Refiner.Split, the refinement kernel inside every
// RefineBatch item, and collectItem, sampleItem and coverBlock, the items
// of the agree-set fan-outs) execute concurrently over disjoint items,
// and their determinism argument — "writes are deterministic positions
// of deterministic values" — only holds if every write lands in the
// kernel's own output slice, a local, or a per-worker scratch receiver
// field.
//
// Inside an annotated function (and any function literal it contains)
// the analyzer rejects:
//
//   - writes whose root is neither a local, a parameter, nor the
//     receiver — package-level state, or variables captured from an
//     enclosing scope;
//   - map writes and delete() anywhere: map iteration order and
//     concurrent map access both break the byte-identity law;
//   - channel sends: a kernel communicates through its disjoint output
//     ranges, never through channels;
//   - copy() into a destination that is not rooted at a local,
//     parameter or receiver.
//
// Reslicing scratch (rf.touched = rf.touched[:0]) and appending through
// parameters stay allowed — that is the sanctioned idiom.
var ShardPure = &Analyzer{
	Name: "shardpure",
	Doc:  "//fd:shardkernel functions write only range parameters, locals and receiver scratch; no maps, sends or captured state",
	Run:  runShardPure,
}

// shardKernelDirective marks a function as a phase-1 shard kernel.
const shardKernelDirective = "//fd:shardkernel"

func runShardPure(pass *Pass) {
	for _, pkg := range pass.Module.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if ok && fd.Body != nil && isShardKernel(fd) {
					checkShardKernel(pass, pkg, fd)
				}
			}
		}
	}
}

func isShardKernel(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == shardKernelDirective {
			return true
		}
	}
	return false
}

func checkShardKernel(pass *Pass, pkg *Package, fd *ast.FuncDecl) {
	info := pkg.Info
	name := fd.Name.Name

	// Everything declared inside the kernel — params, receiver, locals,
	// nested function-literal params — is kernel-private and writable.
	allowed := make(map[types.Object]bool)
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, n := range field.Names {
				if obj := info.Defs[n]; obj != nil {
					allowed[obj] = true
				}
			}
		}
	}
	collect(fd.Recv)
	collect(fd.Type.Params)
	collect(fd.Type.Results)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			if obj := info.Defs[x]; obj != nil {
				allowed[obj] = true
			}
		case *ast.FuncLit:
			collect(x.Type.Params)
			collect(x.Type.Results)
		}
		return true
	})

	checkWrite := func(lhs ast.Expr) {
		root, viaMap := writeRoot(info, lhs)
		if viaMap {
			pass.Reportf(lhs.Pos(), "%s is //fd:shardkernel but writes map %s", name, exprString(lhs))
			return
		}
		if root == nil {
			return // blank, or an unresolvable root: stay quiet
		}
		obj := info.Uses[root]
		if obj == nil {
			obj = info.Defs[root]
		}
		if obj == nil || allowed[obj] {
			return
		}
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			pass.Reportf(lhs.Pos(), "%s is //fd:shardkernel but writes package-level %s", name, exprString(lhs))
			return
		}
		pass.Reportf(lhs.Pos(), "%s is //fd:shardkernel but writes %s, which is captured from outside the kernel", name, exprString(lhs))
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, l := range x.Lhs {
				checkWrite(l)
			}
		case *ast.IncDecStmt:
			checkWrite(x.X)
		case *ast.SendStmt:
			pass.Reportf(x.Pos(), "%s is //fd:shardkernel but sends on channel %s", name, exprString(x.Chan))
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				pass.Reportf(x.Pos(), "%s is //fd:shardkernel but receives from channel %s", name, exprString(x.X))
			}
		case *ast.CallExpr:
			checkShardCall(pass, info, name, x, checkWrite)
		}
		return true
	})
}

// checkShardCall flags delete() (a map write) and copy() into a
// destination outside the kernel.
func checkShardCall(pass *Pass, info *types.Info, name string, call *ast.CallExpr, checkWrite func(ast.Expr)) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return
	}
	if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	switch id.Name {
	case "delete":
		pass.Reportf(call.Pos(), "%s is //fd:shardkernel but deletes from map %s", name, exprString(call.Args[0]))
	case "copy":
		if len(call.Args) > 0 {
			checkWrite(call.Args[0])
		}
	case "clear":
		if len(call.Args) > 0 {
			if tv, ok := info.Types[call.Args[0]]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(call.Pos(), "%s is //fd:shardkernel but clears map %s", name, exprString(call.Args[0]))
					return
				}
			}
			checkWrite(call.Args[0])
		}
	}
}

// writeRoot unwraps an assignment target to its base identifier,
// reporting whether the chain passes through a map index. A starred or
// parenthesized chain unwraps too; unresolvable shapes return nil.
func writeRoot(info *types.Info, e ast.Expr) (root *ast.Ident, viaMap bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if x.Name == "_" {
				return nil, viaMap
			}
			return x, viaMap
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			if tv, ok := info.Types[x.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					viaMap = true
				}
			}
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil, viaMap
		}
	}
}
