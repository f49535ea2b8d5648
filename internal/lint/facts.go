package lint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"sync"
)

// This file is the cross-package facts engine: export data computed once per
// package — today, taint summaries for every function — consumed by the
// downstream analyzers that need to reason across package boundaries
// (taintflow's interprocedural propagation). Facts are pure functions of a
// package's source bytes and its dependencies' facts, memoized for one run.

// ParamFlow records that bytes flowing into one parameter reach the
// function's results.
type ParamFlow struct {
	// Param is the parameter index. For methods the receiver is parameter
	// 0 and the declared parameters follow; plain functions start at 0.
	Param int `json:"param"`
	// Results are the result indices the parameter's taint reaches.
	Results []int `json:"results"`
}

// ParamSink records that a parameter reaches a panic-prone sink inside the
// function (possibly transitively through callees) with no guarding bounds
// check on the path. Call sites that pass tainted values to this parameter
// inherit the finding.
type ParamSink struct {
	Param int `json:"param"`
	// Sink names the sink kind ("slice index", "make length", …).
	Sink string `json:"sink"`
}

// FuncFacts is the taint summary of one function: which results carry
// source taint unconditionally, which parameters flow to results, and which
// parameters reach unguarded sinks.
type FuncFacts struct {
	TaintedResults []int       `json:"tainted_results,omitempty"`
	Flows          []ParamFlow `json:"flows,omitempty"`
	Sinks          []ParamSink `json:"sinks,omitempty"`
}

// equalFacts reports summary equality — the fixed-point termination test.
func equalFacts(a, b *FuncFacts) bool {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return string(ja) == string(jb)
}

// PackageFacts is the export data of one package: function summaries keyed
// by "Func" or "Type.Method".
type PackageFacts struct {
	Path  string
	Funcs map[string]*FuncFacts
}

// Facts is the engine: it computes and memoizes per-package facts. All methods are safe for concurrent use — the driver
// analyzes packages in parallel and every analyzer may query the engine.
type Facts struct {
	mu     sync.Mutex
	loader *Loader
	// mem holds computed facts by import path; computing marks packages
	// whose facts are being computed (cycle guard — Go imports are acyclic,
	// so hitting one means corrupt input, not a real cycle).
	mem       map[string]*PackageFacts
	computing map[string]bool
}

// NewFacts returns an engine resolving packages through the loader.
func NewFacts(l *Loader) *Facts {
	return &Facts{
		loader:    l,
		mem:       map[string]*PackageFacts{},
		computing: map[string]bool{},
	}
}

// For returns the facts for an import path, computing them on demand. It returns nil for paths the
// engine cannot resolve inside the module — stdlib callees have no facts
// and the taint analysis treats them conservatively instead.
func (e *Facts) For(path string) *PackageFacts {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.forLocked(path)
}

// Record computes the facts for an already loaded package — the driver's precompute step, so the parallel analysis phase
// hits only memoized entries.
func (e *Facts) Record(pkg *Package) *PackageFacts {
	e.mu.Lock()
	defer e.mu.Unlock()
	if pf, ok := e.mem[pkg.ImportPath]; ok {
		return pf
	}
	return e.computeLocked(pkg)
}

// forLocked is For with e.mu held (the compute path recurses through
// dependencies).
func (e *Facts) forLocked(path string) *PackageFacts {
	if pf, ok := e.mem[path]; ok {
		return pf
	}
	if e.computing[path] || e.loader == nil {
		return nil
	}
	dir, ok := e.loader.localDir(path)
	if !ok {
		return nil
	}
	pkg, err := e.loader.Load(dir)
	if err != nil {
		return nil
	}
	return e.computeLocked(pkg)
}

// computeLocked runs the taint summary fixed point over a loaded package.
func (e *Facts) computeLocked(pkg *Package) *PackageFacts {
	pf := &PackageFacts{Path: pkg.ImportPath}
	e.computing[pkg.ImportPath] = true
	lookup := func(path string) *PackageFacts {
		if path == pkg.ImportPath {
			return nil // own package is served from the in-progress map
		}
		return e.forLocked(path)
	}
	pf.Funcs = computeTaintFacts(pkg, lookup)
	delete(e.computing, pkg.ImportPath)
	e.mem[pkg.ImportPath] = pf
	return pf
}

// HashFile returns the content hash of one file ("sha256:" and hex) — the
// driver stamps it into JSON output and baselines.
func HashFile(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(data)
	return "sha256:" + hex.EncodeToString(sum[:])
}
