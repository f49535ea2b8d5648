package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crawlerbox/internal/lint"
)

func fixture(name string) string {
	return filepath.FromSlash("../../internal/lint/testdata/src/" + name)
}

// TestJSONGolden pins the machine-readable output byte for byte: analyzer,
// relative file path, position, and message for each finding, sorted.
func TestJSONGolden(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-json", fixture("jsonfix")}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (findings present); stderr: %s", code, errb.String())
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(golden) {
		t.Errorf("-json output differs from testdata/golden.json:\n got: %s\nwant: %s", out.String(), golden)
	}
}

func TestCleanPackageExitsZero(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{fixture("cleanfix")}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stdout: %s", code, out.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean package produced output: %s", out.String())
	}
}

func TestCleanPackageJSONHasVersionAndEmptyFindings(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-json", fixture("cleanfix")}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	var report struct {
		Version  string            `json:"cblint_version"`
		Findings []json.RawMessage `json:"findings"`
	}
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out.String())
	}
	if report.Version != lint.Version {
		t.Errorf("cblint_version = %q, want %q", report.Version, lint.Version)
	}
	if report.Findings == nil || len(report.Findings) != 0 {
		t.Errorf("findings = %v, want present and empty", report.Findings)
	}
}

// TestBaselineRoundTrip accepts current findings with -write-baseline, then
// verifies a -baseline run reports them as baselined and exits clean.
func TestBaselineRoundTrip(t *testing.T) {
	base := filepath.Join(t.TempDir(), "base.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-write-baseline", base, fixture("jsonfix")}, &out, &errb); code != 0 {
		t.Fatalf("-write-baseline exit = %d, want 0; stderr: %s", code, errb.String())
	}
	out.Reset()
	errb.Reset()
	code := run([]string{"-baseline", base, fixture("jsonfix")}, &out, &errb)
	if code != 0 {
		t.Fatalf("baselined run exit = %d, want 0; stdout: %s stderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "0 findings") || !strings.Contains(errb.String(), "2 baselined") {
		t.Errorf("summary should report all findings baselined: %s", errb.String())
	}
}

// TestSARIFOutput checks the -sarif file parses and carries the findings.
func TestSARIFOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.sarif")
	var out, errb bytes.Buffer
	if code := run([]string{"-sarif", path, fixture("jsonfix")}, &out, &errb); code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, errb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Version string `json:"version"`
		Runs    []struct {
			Results []struct {
				RuleID string `json:"ruleId"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if doc.Version != "2.1.0" {
		t.Errorf("SARIF version = %q, want 2.1.0", doc.Version)
	}
	if len(doc.Runs) != 1 || len(doc.Runs[0].Results) != 2 {
		t.Fatalf("SARIF runs/results = %+v, want 1 run with 2 results", doc.Runs)
	}
	if doc.Runs[0].Results[0].RuleID != "determinism" {
		t.Errorf("ruleId = %q, want determinism", doc.Runs[0].Results[0].RuleID)
	}
}

// TestSuggestPrintsPasteableIgnores checks the suppression helper output.
func TestSuggestPrintsPasteableIgnores(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-suggest", fixture("jsonfix")}, &out, &errb); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(out.String(), "//cblint:ignore determinism ") {
		t.Errorf("-suggest output missing pasteable directive:\n%s", out.String())
	}
}

func TestTextOutputFindings(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{fixture("jsonfix")}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	for _, want := range []string{
		"jsonfix.go:10:9: [determinism]",
		"jsonfix.go:10:21: [determinism]",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("text output missing %q:\n%s", want, out.String())
		}
	}
	if !strings.Contains(errb.String(), "1 packages, 2 findings") {
		t.Errorf("summary line missing from stderr: %s", errb.String())
	}
}

func TestListPrintsRegistry(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-list"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	for _, name := range []string{"determinism", "maprange", "ctxflow", "guarded", "resilience"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, out.String())
		}
	}
}

func TestUnknownDirExitsTwo(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{filepath.FromSlash("testdata/no-such-dir")}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (driver error)", code)
	}
}
