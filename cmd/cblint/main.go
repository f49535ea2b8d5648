// Command cblint runs the repository's invariant linter (internal/lint)
// over package directories and reports findings with file:line:col
// positions. It is the static-analysis leg of `make check`.
//
// Usage:
//
//	cblint [flags] [pattern ...]
//
// A pattern is a directory, or a directory followed by /... to walk the
// subtree (the default is ./...). Flags:
//
//	-json            emit findings as a JSON object (analyzer version,
//	                 findings with file content hashes)
//	-list            print the analyzer registry and exit
//	-baseline FILE   load accepted findings; only NEW findings fail the run
//	-write-baseline FILE
//	                 snapshot current findings as the baseline and exit
//	-sarif FILE      additionally write findings as SARIF 2.1.0 ("-" = stdout)
//	-suggest         print ready-to-paste //cblint:ignore lines per finding
//	-parallel N      analyze N packages concurrently (default GOMAXPROCS)
//
// Exit status is 0 when clean (or all findings baselined), 1 when any new
// unsuppressed finding exists, 2 on a driver error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/build"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"crawlerbox/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonReport is the -json output shape. The version stamp and per-finding
// content hashes make reports (and baselines derived from them) comparable
// across checkouts: identical sources produce identical reports no matter
// where the repo lives on disk.
type jsonReport struct {
	Version  string            `json:"cblint_version"`
	Findings []lint.Diagnostic `json:"findings"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cblint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON object with version and file hashes")
	list := fs.Bool("list", false, "print the analyzer registry and exit")
	baselinePath := fs.String("baseline", "", "baseline file of accepted findings; only new findings fail")
	writeBaseline := fs.String("write-baseline", "", "write current findings to this baseline file and exit")
	sarifPath := fs.String("sarif", "", "write findings as SARIF 2.1.0 to this file (\"-\" for stdout)")
	suggest := fs.Bool("suggest", false, "print ready-to-paste //cblint:ignore suppressions per finding")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "number of packages analyzed concurrently")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.Registry() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name(), a.Doc())
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := expandPatterns(patterns)
	if err != nil {
		fmt.Fprintln(stderr, "cblint:", err)
		return 2
	}
	root := moduleRoot()
	loader := lint.NewLoader(root)
	facts := lint.NewFacts(loader)

	// Load sequentially — the loader's dependency cache is not safe for
	// concurrent use — and precompute each package's facts so the parallel
	// phase below only reads memoized summaries.
	var pkgs []*lint.Package
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			if _, nogo := err.(*build.NoGoError); nogo {
				continue
			}
			fmt.Fprintln(stderr, "cblint:", err)
			return 2
		}
		facts.Record(pkg)
		pkgs = append(pkgs, pkg)
	}

	analyzers := lint.Registry()
	results := make([]lint.Result, len(pkgs))
	workers := *parallel
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				results[i] = lint.RunPackage(pkgs[i], analyzers, facts)
			}
		}()
	}
	for i := range pkgs {
		work <- i
	}
	close(work)
	wg.Wait()

	var diags []lint.Diagnostic
	suppressed := 0
	for _, res := range results {
		diags = append(diags, res.Diagnostics...)
		suppressed += res.Suppressed
	}
	stampHashes(diags)
	relativize(diags)
	lint.SortDiagnostics(diags)

	if *writeBaseline != "" {
		if err := lint.NewBaseline(diags).Write(*writeBaseline); err != nil {
			fmt.Fprintln(stderr, "cblint:", err)
			return 2
		}
		fmt.Fprintf(stderr, "cblint: wrote baseline with %d findings to %s\n",
			len(diags), *writeBaseline)
		return 0
	}

	accepted := 0
	if *baselinePath != "" {
		base, err := lint.LoadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintln(stderr, "cblint:", err)
			return 2
		}
		if base.Version != lint.Version {
			fmt.Fprintf(stderr, "cblint: baseline written by version %s, running %s — regenerate with -write-baseline\n",
				base.Version, lint.Version)
		}
		var old []lint.Diagnostic
		diags, old = base.Filter(diags)
		accepted = len(old)
	}

	if *sarifPath != "" {
		out := stdout
		if *sarifPath != "-" {
			f, err := os.Create(*sarifPath)
			if err != nil {
				fmt.Fprintln(stderr, "cblint:", err)
				return 2
			}
			defer f.Close()
			out = f
		}
		if err := lint.WriteSARIF(out, diags); err != nil {
			fmt.Fprintln(stderr, "cblint:", err)
			return 2
		}
	}

	switch {
	case *jsonOut:
		report := jsonReport{Version: lint.Version, Findings: diags}
		if report.Findings == nil {
			report.Findings = []lint.Diagnostic{}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(stderr, "cblint:", err)
			return 2
		}
	default:
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
			if *suggest {
				fmt.Fprintf(stdout, "\t%s:%d: paste above the line:\n", d.File, d.Line)
				fmt.Fprintf(stdout, "\t//cblint:ignore %s <why this site is safe>\n", d.Analyzer)
			}
		}
		fmt.Fprintf(stderr, "cblint: %d packages, %d findings, %d suppressed",
			len(pkgs), len(diags), suppressed)
		if *baselinePath != "" {
			fmt.Fprintf(stderr, ", %d baselined", accepted)
		}
		fmt.Fprintln(stderr)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// stampHashes fills each finding's FileHash from the file contents (paths
// are still absolute here). Hashes are memoized per file.
func stampHashes(diags []lint.Diagnostic) {
	hashes := map[string]string{}
	for i := range diags {
		path := diags[i].File
		h, ok := hashes[path]
		if !ok {
			h = lint.HashFile(path)
			hashes[path] = h
		}
		diags[i].FileHash = h
	}
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		parent := filepath.Dir(d)
		if parent == d {
			return dir
		}
		d = parent
	}
}

// relativize rewrites absolute finding paths relative to the working
// directory, so output (and golden files) are machine-independent.
func relativize(diags []lint.Diagnostic) {
	cwd, err := os.Getwd()
	if err != nil {
		return
	}
	for i := range diags {
		if rel, err := filepath.Rel(cwd, diags[i].File); err == nil {
			diags[i].File = filepath.ToSlash(rel)
		}
	}
}

// expandPatterns resolves the command-line patterns into package
// directories, walking /... subtrees and skipping testdata, hidden, and
// underscore directories the way the go tool does.
func expandPatterns(patterns []string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, p := range patterns {
		if rest, ok := strings.CutSuffix(p, "/..."); ok {
			if rest == "" || rest == "." {
				rest = "."
			}
			err := filepath.WalkDir(rest, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != rest && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		if !hasGoFiles(p) {
			return nil, fmt.Errorf("no Go files in %s", p)
		}
		add(p)
	}
	return dirs, nil
}

// hasGoFiles reports whether dir directly contains a non-test Go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}
