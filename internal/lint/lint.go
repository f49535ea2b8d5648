// Package lint is cblint: a from-scratch static-analysis suite, built on
// nothing but the standard library's go/parser, go/build, and go/types, that
// machine-checks the invariants the pipeline's reproducibility and
// bounded-memory guarantees rest on (DESIGN.md §9, §13). Eight analyzers ship
// today — six per-package passes:
//
//   - determinism: wall-clock reads and global math/rand calls are banned in
//     internal production code — time flows through webnet.Clock and
//     randomness through explicitly seeded *rand.Rand values.
//   - maprange: range over a map in an aggregation/rendering package is
//     scheduling-dependent; keys must be collected and sorted first.
//   - ctxflow: context.Background()/context.TODO() belong at the edges
//     (cmd/, examples/, tests); library code threads the caller's ctx, and
//     a call must not drop an in-scope ctx a callee accepts.
//   - guarded: a struct field annotated "guarded by <mutex>" may only be
//     touched by methods that lock that mutex on the same receiver first.
//   - resilience: real-time waits (time.Sleep, timers) and wall-clock
//     deadlines (context.WithTimeout/WithDeadline) are banned in internal
//     code — backoff and budgets are charged to the virtual clock through
//     resilience.Session.
//   - streamsafe: ranging over (or allocating proportionally to) the whole
//     corpus message ledger, dataset.Corpus.Messages, is banned outside the
//     sanctioned streaming site; corpus processing goes through Corpus.Each
//     and one census fold so peak memory stays O(workers).
//
// and two multi-pass analyzers built on the cross-package Facts engine
// (facts.go), which computes per-package function summaries once, caches
// them by content hash, and serves them to downstream packages:
//
//   - taintflow: values derived from the attacker-facing parsers (mime,
//     htmlx, pdfx, qrcode, minijs, urlx) are tainted; a tainted value
//     reaching a panic-prone sink — slice/array indexing or slicing without
//     a guarding bounds check in the same function, make with a tainted
//     length, an unchecked unsigned-to-signed integer conversion,
//     regexp.MustCompile of a tainted pattern — is a finding, with
//     interprocedural propagation through function summaries.
//   - hotalloc: a function annotated //cblint:hotpath (the per-message
//     stream/census/evidence path) must not allocate proportionally to
//     corpus size — no append into captured slices, no fmt.Sprintf-family
//     calls in loops, no map growth keyed by per-message identity. And no
//     function builds a strings.Replacer or regexp from constants on every
//     call: such tables are package-level variables.
//
// Findings are suppressed, one line at a time, with an explicit
//
//	//cblint:ignore <analyzer> <reason>
//
// directive on the offending line or the line directly above it; the reason
// is mandatory so every suppression documents itself.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Version is the analyzer-suite version stamped into JSON output, SARIF,
// baselines, and the facts cache. Bump it whenever an analyzer's findings or
// the facts format change shape: a version mismatch invalidates cached facts
// and marks baselines as needing regeneration.
const Version = "2.1.0"

// Diagnostic is one finding, positioned for file:line:col reporting.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
	// FileHash is the content hash of File, filled by the driver so JSON
	// output and baselines stay stable across checkouts (paths relative,
	// hashes content-derived).
	FileHash string `json:"file_hash,omitempty"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one invariant checker.
type Analyzer interface {
	// Name is the registry key the suppression directive references.
	Name() string
	// Doc is a one-line description for `cblint -list`.
	Doc() string
	// Applies reports whether the analyzer covers the package with the
	// given import path. The driver consults it; fixture tests bypass it
	// and call Check directly.
	Applies(importPath string) bool
	// Check analyzes one package and returns raw (unsuppressed) findings.
	// The facts engine carries cross-package function summaries; analyzers
	// that are purely intra-package ignore it, and it may be nil.
	Check(pkg *Package, facts *Facts) []Diagnostic
}

// Registry returns the analyzers in their canonical order.
func Registry() []Analyzer {
	return []Analyzer{
		Determinism{},
		MapRange{},
		CtxFlow{},
		Guarded{},
		Resilience{},
		StreamSafe{},
		TaintFlow{},
		HotAlloc{},
	}
}

// IgnoreDirective is the comment prefix of a suppression.
const IgnoreDirective = "cblint:ignore"

// suppression is one parsed ignore directive.
type suppression struct {
	analyzer string
	reason   string
}

// suppressions maps file name -> line -> directives covering that line. A
// directive covers its own line (trailing comment) and the line directly
// below it (standalone comment above the offending statement).
type suppressions map[string]map[int][]suppression

// parseSuppressions collects every well-formed ignore directive in the
// package. Malformed directives (missing analyzer or reason) surface as
// diagnostics themselves: a suppression that doesn't say why is a finding.
func parseSuppressions(pkg *Package) (suppressions, []Diagnostic) {
	sup := suppressions{}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimPrefix(text, "/*")
				text = strings.TrimSuffix(text, "*/")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, IgnoreDirective)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					diags = append(diags, Diagnostic{
						Analyzer: "cblint",
						Pos:      pos,
						Message: fmt.Sprintf("malformed %s directive: want %q",
							IgnoreDirective, IgnoreDirective+" <analyzer> <reason>"),
					})
					continue
				}
				s := suppression{analyzer: fields[0], reason: strings.Join(fields[1:], " ")}
				if sup[pos.Filename] == nil {
					sup[pos.Filename] = map[int][]suppression{}
				}
				sup[pos.Filename][pos.Line] = append(sup[pos.Filename][pos.Line], s)
				sup[pos.Filename][pos.Line+1] = append(sup[pos.Filename][pos.Line+1], s)
			}
		}
	}
	return sup, diags
}

// covers reports whether a directive suppresses the diagnostic.
func (s suppressions) covers(d Diagnostic) bool {
	for _, sp := range s[d.Pos.Filename][d.Pos.Line] {
		if sp.analyzer == d.Analyzer || sp.analyzer == "all" {
			return true
		}
	}
	return false
}

// Result is the outcome of running the registry over one package.
type Result struct {
	// Diagnostics are the surviving findings, sorted by position.
	Diagnostics []Diagnostic
	// Suppressed counts findings silenced by ignore directives.
	Suppressed int
}

// RunPackage applies every registered analyzer that covers pkg, resolves
// suppressions, and returns position-sorted findings. The facts engine may
// be nil, in which case the cross-package analyzers degrade to intra-package
// summaries.
func RunPackage(pkg *Package, analyzers []Analyzer, facts *Facts) Result {
	sup, diags := parseSuppressions(pkg)
	var res Result
	for _, a := range analyzers {
		if !a.Applies(pkg.ImportPath) {
			continue
		}
		diags = append(diags, a.Check(pkg, facts)...)
	}
	for _, d := range diags {
		fill(&d)
		if sup.covers(d) {
			res.Suppressed++
			continue
		}
		res.Diagnostics = append(res.Diagnostics, d)
	}
	SortDiagnostics(res.Diagnostics)
	return res
}

// fill derives the flat File/Line/Col fields from Pos.
func fill(d *Diagnostic) {
	d.File = d.Pos.Filename
	d.Line = d.Pos.Line
	d.Col = d.Pos.Column
}

// SortDiagnostics orders findings by file, line, column, analyzer, message —
// the linter's own output must be deterministic, too.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// importTable maps a file's local package names to import paths — the
// syntax-level fallback for resolving selector expressions like time.Now
// when type information is unavailable (broken packages, fixtures).
func importTable(f *ast.File) map[string]string {
	t := map[string]string{}
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path
		if i := strings.LastIndexByte(path, '/'); i >= 0 {
			name = path[i+1:]
		}
		if imp.Name != nil {
			name = imp.Name.Name
			if name == "_" || name == "." {
				continue
			}
		}
		t[name] = path
	}
	return t
}

// pkgCallee resolves a call of the form pkgname.Func(...) to (importPath,
// funcName). It prefers type information (which sees through shadowing) and
// falls back to the file's import table.
func pkgCallee(pkg *Package, table map[string]string, call *ast.CallExpr) (string, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	if pkg.Info != nil {
		if obj := pkg.Info.Uses[id]; obj != nil {
			if pn, ok := obj.(*types.PkgName); ok {
				return pn.Imported().Path(), sel.Sel.Name, true
			}
			// The identifier resolved to something that is not a package
			// name (a local variable shadowing an import, say).
			return "", "", false
		}
	}
	if path, ok := table[id.Name]; ok {
		return path, sel.Sel.Name, true
	}
	return "", "", false
}
