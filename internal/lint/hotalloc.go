package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// HotpathDirective marks a function as per-message hot path: it runs once
// per corpus message on the streaming analyze/census/evidence path, so its
// allocations multiply by a million under the paper-scale corpus. The
// directive goes in the function's doc comment:
//
//	//cblint:hotpath
//	func (s *CensusShard) AddAnalysis(ma *crawlerbox.MessageAnalysis) {
const HotpathDirective = "cblint:hotpath"

// HotAlloc enforces the ~O(1)-allocation-per-message contract on hot-path
// functions (DESIGN.md §11, §13). Inside a //cblint:hotpath function:
//
//  1. append must target a slice declared in the function itself — an
//     append into a captured, receiver-reachable, or package-level slice
//     accumulates across calls and grows with the corpus.
//  2. fmt.Sprintf-family calls (Sprintf, Sprint, Sprintln, Errorf) must not
//     sit inside a loop: each call allocates a string, and loops on the hot
//     path run per message part.
//  3. Map writes into captured/receiver maps must not be keyed by
//     per-message identity (a key expression reading an ID, URL, or Path
//     field): such maps grow one entry per message. Bounded-domain keys
//     (hosts, outcome labels, cloak kinds) are fine; sanctioned identity-
//     keyed sites carry an explicit //cblint:ignore with the reason.
//
// One rule holds in every function body, hot path or not:
//
//  4. strings.NewReplacer and regexp.MustCompile/Compile (and the POSIX
//     variants) must not be called with all-constant arguments: the table
//     they build is the same on every call, and building it costs more
//     than most uses of it. Such tables are package-level variables. init
//     functions run once and are exempt.
type HotAlloc struct{}

// Name implements Analyzer.
func (HotAlloc) Name() string { return "hotalloc" }

// Doc implements Analyzer.
func (HotAlloc) Doc() string {
	return "//cblint:hotpath functions must not allocate proportionally to corpus size (captured-slice appends, Sprintf in loops, identity-keyed map growth); no function rebuilds a constant replacer or regexp per call"
}

// Applies implements Analyzer: internal production code.
func (HotAlloc) Applies(importPath string) bool {
	return strings.Contains(importPath+"/", "/internal/") ||
		strings.HasPrefix(importPath, "internal/")
}

// Check implements Analyzer.
func (HotAlloc) Check(pkg *Package, _ *Facts) []Diagnostic {
	if pkg.Info == nil {
		return nil
	}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			diags = append(diags, checkConstTables(pkg, fd)...)
			if isHotpath(fd) {
				diags = append(diags, checkHotFunc(pkg, fd)...)
			}
		}
	}
	return diags
}

// isHotpath reports whether the function's doc comment carries the
// directive.
func isHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == HotpathDirective {
			return true
		}
	}
	return false
}

// checkHotFunc walks one hot function, tracking loop depth.
func checkHotFunc(pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	var diags []Diagnostic
	var walk func(n ast.Node, inLoop bool)
	walk = func(n ast.Node, inLoop bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch node := m.(type) {
			case *ast.ForStmt:
				if node.Init != nil {
					walk(node.Init, inLoop)
				}
				walk(node.Body, true)
				return false
			case *ast.RangeStmt:
				walk(node.Body, true)
				return false
			case *ast.FuncLit:
				// A closure defined on the hot path inherits the contract:
				// it is called from here or captured into the same flow.
				walk(node.Body, inLoop)
				return false
			case *ast.CallExpr:
				diags = append(diags, checkHotCall(pkg, fd, node, inLoop)...)
			case *ast.AssignStmt:
				for _, lhs := range node.Lhs {
					diags = append(diags, checkHotMapWrite(pkg, fd, lhs)...)
				}
			case *ast.IncDecStmt:
				diags = append(diags, checkHotMapWrite(pkg, fd, node.X)...)
			}
			return true
		})
	}
	walk(fd.Body, false)
	return diags
}

// checkHotCall flags rule-1 appends and rule-2 Sprintf-in-loop calls.
func checkHotCall(pkg *Package, fd *ast.FuncDecl, call *ast.CallExpr, inLoop bool) []Diagnostic {
	if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
		if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin && len(call.Args) > 0 {
			root := writeRoot(pkg, call.Args[0])
			if root != nil && !bodyLocal(root, fd) {
				return []Diagnostic{{
					Analyzer: "hotalloc",
					Pos:      pkg.Fset.Position(call.Pos()),
					Message: fmt.Sprintf("hotpath append into %s, which outlives the call; per-message appends into captured slices grow with the corpus",
						exprString(call.Args[0])),
				}}
			}
		}
		return nil
	}
	if !inLoop {
		return nil
	}
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok &&
			fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			switch fn.Name() {
			case "Sprintf", "Sprint", "Sprintln", "Errorf":
				return []Diagnostic{{
					Analyzer: "hotalloc",
					Pos:      pkg.Fset.Position(call.Pos()),
					Message: fmt.Sprintf("fmt.%s inside a hotpath loop allocates per iteration; format once outside the loop or index a precomputed table",
						fn.Name()),
				}}
			}
		}
	}
	return nil
}

// constTableBuilders are the constructors whose result depends on their
// arguments alone (rule 4), by package path and function name.
var constTableBuilders = map[[2]string]bool{
	{"strings", "NewReplacer"}:     true,
	{"regexp", "MustCompile"}:      true,
	{"regexp", "Compile"}:          true,
	{"regexp", "MustCompilePOSIX"}: true,
	{"regexp", "CompilePOSIX"}:     true,
}

// checkConstTables flags rule-4 tables rebuilt from constants on every
// call, including inside closures the function defines.
func checkConstTables(pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	if fd.Recv == nil && fd.Name.Name == "init" {
		return nil
	}
	var diags []Diagnostic
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || !constTableBuilders[[2]string{fn.Pkg().Path(), fn.Name()}] {
			return true
		}
		for _, arg := range call.Args {
			if pkg.Info.Types[arg].Value == nil {
				return true
			}
		}
		diags = append(diags, Diagnostic{
			Analyzer: "hotalloc",
			Pos:      pkg.Fset.Position(call.Pos()),
			Message: fmt.Sprintf("%s.%s with constant arguments inside %s rebuilds the same table on every call; hoist it to a package-level variable",
				fn.Pkg().Name(), fn.Name(), fd.Name.Name),
		})
		return true
	})
	return diags
}

// identityKeyNames are the selector/identifier names that mark a map key as
// per-message identity.
var identityKeyNames = map[string]bool{
	"ID": true, "URL": true, "Path": true,
	"id": true, "url": true, "path": true,
}

// checkHotMapWrite flags rule-3 identity-keyed growth of long-lived maps.
func checkHotMapWrite(pkg *Package, fd *ast.FuncDecl, lhs ast.Expr) []Diagnostic {
	idx, ok := unparen(lhs).(*ast.IndexExpr)
	if !ok || !isMapExpr(pkg, idx.X) {
		return nil
	}
	root := writeRoot(pkg, idx.X)
	if root == nil || bodyLocal(root, fd) {
		return nil
	}
	if !mentionsIdentity(pkg, idx.Index) {
		return nil
	}
	return []Diagnostic{{
		Analyzer: "hotalloc",
		Pos:      pkg.Fset.Position(lhs.Pos()),
		Message: fmt.Sprintf("hotpath map write %s keyed by per-message identity grows one entry per message; aggregate into a bounded key or sanction the site with an ignore",
			exprString(lhs)),
	}}
}

// bodyLocal reports whether v is declared inside the function body. The
// receiver and parameters do NOT count: they are state from the caller's
// frame, so slices and maps reached through them outlive the hot call.
func bodyLocal(obj types.Object, fd *ast.FuncDecl) bool {
	return fd.Body != nil && obj.Pos() >= fd.Body.Pos() && obj.Pos() <= fd.Body.End()
}

// mentionsIdentity reports whether the key expression reads an identity
// field or variable.
func mentionsIdentity(pkg *Package, key ast.Expr) bool {
	found := false
	ast.Inspect(key, func(n ast.Node) bool {
		if found {
			return false
		}
		switch node := n.(type) {
		case *ast.SelectorExpr:
			if identityKeyNames[node.Sel.Name] {
				found = true
				return false
			}
		case *ast.Ident:
			if identityKeyNames[node.Name] {
				// Only variables count — a type or package named "url"
				// appearing in a conversion is not an identity read.
				if _, ok := pkg.Info.Uses[node].(*types.Var); ok {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// writeRoot resolves the base object of an assignable expression.
func writeRoot(pkg *Package, expr ast.Expr) types.Object {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			if obj := pkg.Info.Uses[e]; obj != nil {
				return obj
			}
			return pkg.Info.Defs[e]
		case *ast.SelectorExpr:
			// A package-qualified selector roots at the selected object.
			if id, ok := e.X.(*ast.Ident); ok {
				if _, isPkg := pkg.Info.Uses[id].(*types.PkgName); isPkg {
					return pkg.Info.Uses[e.Sel]
				}
			}
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// isMapExpr reports whether the expression has map type.
func isMapExpr(pkg *Package, expr ast.Expr) bool {
	tv, ok := pkg.Info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}
