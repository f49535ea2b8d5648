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
//
// Packages are analyzed concurrently, GOMAXPROCS at a time. Exit status is 0
// when clean, 1 when any unsuppressed finding exists, 2 on a driver error.
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
// content hashes make reports comparable across checkouts: identical sources
// produce identical reports no matter where the repo lives on disk.
type jsonReport struct {
	Version  string            `json:"cblint_version"`
	Findings []lint.Diagnostic `json:"findings"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cblint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON object with version and file hashes")
	list := fs.Bool("list", false, "print the analyzer registry and exit")
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
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
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

	if *jsonOut {
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
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
		fmt.Fprintf(stderr, "cblint: %d packages, %d findings, %d suppressed\n",
			len(pkgs), len(diags), suppressed)
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
