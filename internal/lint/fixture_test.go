package lint

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// loadFixture typechecks one fixture package under testdata/src. Fixtures
// must be valid Go: a type error would silently blind the analyzers, so it
// fails the test instead.
func loadFixture(t *testing.T, dir string) *Package {
	t.Helper()
	loader := NewLoader(filepath.Join("..", ".."))
	pkg, err := loader.Load(filepath.Join("testdata", "src", filepath.FromSlash(dir)))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	for _, e := range pkg.TypeErrors {
		t.Errorf("fixture %s has type error: %v", dir, e)
	}
	if t.Failed() {
		t.FailNow()
	}
	return pkg
}

// expectation is one `// want "substring" ...` comment: every quoted
// substring must be matched by a distinct diagnostic on that line.
type expectation struct {
	line    int
	substr  string
	matched bool
}

// parseWants collects the expectations from a fixture's comments.
func parseWants(pkg *Package) []*expectation {
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				line := pkg.Fset.Position(c.Pos()).Line
				// Quoted substrings are the odd-indexed segments.
				parts := strings.Split(rest, `"`)
				for i := 1; i < len(parts); i += 2 {
					wants = append(wants, &expectation{line: line, substr: parts[i]})
				}
			}
		}
	}
	return wants
}

// checkFixture runs one analyzer over a fixture and verifies the findings
// line up with the want comments, and that exactly wantSuppressed findings
// were silenced by ignore directives. The analyzer gets a live facts engine
// so cross-package fixtures exercise real interprocedural propagation.
func checkFixture(t *testing.T, a Analyzer, dir string, wantSuppressed int) {
	t.Helper()
	pkg := loadFixture(t, dir)
	if !a.Applies(pkg.ImportPath) {
		t.Fatalf("%s does not apply to fixture import path %q", a.Name(), pkg.ImportPath)
	}
	facts := NewFacts(NewLoader(filepath.Join("..", "..")))
	res := RunPackage(pkg, []Analyzer{a}, facts)
	wants := parseWants(pkg)
	if len(wants) < 2 {
		t.Fatalf("fixture %s demonstrates %d positives; want at least 2", dir, len(wants))
	}
outer:
	for _, d := range res.Diagnostics {
		for _, w := range wants {
			if !w.matched && w.line == d.Line && strings.Contains(d.Message, w.substr) {
				w.matched = true
				continue outer
			}
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missing diagnostic at line %d matching %q", w.line, w.substr)
		}
	}
	if res.Suppressed != wantSuppressed {
		t.Errorf("suppressed = %d, want %d", res.Suppressed, wantSuppressed)
	}
}

func TestDeterminismFixture(t *testing.T) {
	// Two suppressed: rand.New and rand.NewSource share the annotated line.
	checkFixture(t, Determinism{}, "determfix", 2)
}

func TestMapRangeFixture(t *testing.T) {
	checkFixture(t, MapRange{}, "internal/report", 1)
}

func TestCtxFlowFixture(t *testing.T) {
	checkFixture(t, CtxFlow{}, "ctxfix", 1)
}

func TestGuardedFixture(t *testing.T) {
	checkFixture(t, Guarded{}, "guardfix", 1)
}

func TestResilienceFixture(t *testing.T) {
	checkFixture(t, Resilience{}, "resiliencefix", 1)
}

func TestStreamSafeFixture(t *testing.T) {
	checkFixture(t, StreamSafe{}, "streamfix", 1)
}

func TestTaintFlowFixture(t *testing.T) {
	checkFixture(t, TaintFlow{}, "taintfix", 1)
}

func TestHotAllocFixture(t *testing.T) {
	checkFixture(t, HotAlloc{}, "hotfix", 1)
}

func TestHotAllocConstTableFixture(t *testing.T) {
	checkFixture(t, HotAlloc{}, "constfix", 1)
}

// TestSuppressionDirective pins the directive semantics: a named directive
// and the "all" wildcard silence the finding on the next line, and a
// directive without a reason both fails to suppress and is itself reported.
func TestSuppressionDirective(t *testing.T) {
	pkg := loadFixture(t, "suppressfix")
	res := RunPackage(pkg, Registry(), nil)
	if res.Suppressed != 2 {
		t.Errorf("suppressed = %d, want 2 (named + wildcard)", res.Suppressed)
	}
	var got []string
	for _, d := range res.Diagnostics {
		got = append(got, fmt.Sprintf("%s:%d", d.Analyzer, d.Line))
	}
	if len(res.Diagnostics) != 2 {
		t.Fatalf("diagnostics = %v, want the malformed directive plus the unsuppressed finding", got)
	}
	malformed, finding := res.Diagnostics[0], res.Diagnostics[1]
	if malformed.Analyzer != "cblint" || !strings.Contains(malformed.Message, "malformed") {
		t.Errorf("first diagnostic = %s, want a malformed-directive report", malformed)
	}
	if finding.Analyzer != "determinism" || finding.Line != malformed.Line+1 {
		t.Errorf("second diagnostic = %s, want the undimmed time.Now finding below the bad directive", finding)
	}
}

// TestRegistryOrder pins the canonical analyzer order -list prints and the
// docs reference.
func TestRegistryOrder(t *testing.T) {
	var names []string
	for _, a := range Registry() {
		names = append(names, a.Name())
	}
	want := []string{"determinism", "maprange", "ctxflow", "guarded", "resilience", "streamsafe",
		"taintflow", "hotalloc"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("Registry() order = %v, want %v", names, want)
	}
}
