package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// StreamSafe guards the million-message memory contract (DESIGN.md §12):
// corpus processing must stream — Corpus.Each renders one message at a
// time and Analyze folds each result into one census as it commits — so
// peak memory is O(workers), not O(corpus). Code that ranges over the
// whole message ledger (dataset.Corpus.Messages) or preallocates a slice
// sized by it reintroduces the O(corpus) footprint the streaming API
// exists to eliminate, and silently sees no message bytes: the ledger
// holds plans whose Raw stays nil.
//
// The sanctioned site — Each's own iterator — carries an explicit
// "//cblint:ignore streamsafe <reason>".
type StreamSafe struct{}

// streamLedgers maps the guarded field selectors to the owning type: a
// selector named <key> on a value of type <pkgSuffix>.<typeName> is a
// whole-corpus ledger access.
var streamLedgers = map[string]struct {
	pkgSuffix string
	typeName  string
	advice    string
}{
	"Messages": {"internal/dataset", "Corpus", "stream with Corpus.Each/Len instead"},
}

// Name implements Analyzer.
func (StreamSafe) Name() string { return "streamsafe" }

// Doc implements Analyzer.
func (StreamSafe) Doc() string {
	return "forbid whole-corpus materialization (ranging over or sizing by Corpus.Messages) outside the sanctioned streaming site"
}

// Applies implements Analyzer: internal production packages and the CLIs.
func (StreamSafe) Applies(importPath string) bool {
	return strings.Contains(importPath+"/", "/internal/") ||
		strings.HasPrefix(importPath, "internal/") ||
		strings.Contains(importPath+"/", "/cmd/") ||
		strings.HasPrefix(importPath, "cmd/")
}

// Check implements Analyzer.
func (s StreamSafe) Check(pkg *Package, _ *Facts) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.RangeStmt:
				if field, ok := s.ledgerSelector(pkg, node.X); ok {
					diags = append(diags, Diagnostic{
						Analyzer: s.Name(),
						Pos:      pkg.Fset.Position(node.Pos()),
						Message: fmt.Sprintf(
							"range over %s materializes the whole corpus in RAM; %s",
							exprString(node.X), streamLedgers[field].advice),
					})
				}
			case *ast.CallExpr:
				if fn, ok := node.Fun.(*ast.Ident); !ok || fn.Name != "make" {
					return true
				}
				// make(T, len(ledger)) or make(T, n, len(ledger)): the
				// allocation is sized by the whole corpus.
				for _, arg := range node.Args[1:] {
					call, ok := arg.(*ast.CallExpr)
					if !ok {
						continue
					}
					lenFn, ok := call.Fun.(*ast.Ident)
					if !ok || lenFn.Name != "len" || len(call.Args) != 1 {
						continue
					}
					if field, ok := s.ledgerSelector(pkg, call.Args[0]); ok {
						diags = append(diags, Diagnostic{
							Analyzer: s.Name(),
							Pos:      pkg.Fset.Position(node.Pos()),
							Message: fmt.Sprintf(
								"allocation sized by the whole corpus (len(%s)); %s",
								exprString(call.Args[0]), streamLedgers[field].advice),
						})
					}
				}
			}
			return true
		})
	}
	return diags
}

// ledgerSelector reports whether expr selects one of the guarded ledger
// fields off its owning type, returning the field name on a match. The
// check is type-driven: a field named Messages on an unrelated struct does
// not count.
func (StreamSafe) ledgerSelector(pkg *Package, expr ast.Expr) (string, bool) {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	ledger, ok := streamLedgers[sel.Sel.Name]
	if !ok || pkg.Info == nil {
		return "", false
	}
	tv, ok := pkg.Info.Types[sel.X]
	if !ok || tv.Type == nil {
		return "", false
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Name() != ledger.typeName || obj.Pkg() == nil {
		return "", false
	}
	path := obj.Pkg().Path()
	if path != ledger.pkgSuffix && !strings.HasSuffix(path, "/"+ledger.pkgSuffix) {
		return "", false
	}
	return sel.Sel.Name, true
}
