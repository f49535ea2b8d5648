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

// TestTextOutputFindings pins the text format, the gate's output: every
// finding line in order on stdout and the exact summary line on stderr.
func TestTextOutputFindings(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{fixture("jsonfix")}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	const msg = " [determinism] time.Now reads the process wall clock; thread a webnet.Clock instead\n"
	const file = "../../internal/lint/testdata/src/jsonfix/jsonfix.go"
	want := file + ":10:9:" + msg + file + ":10:21:" + msg
	if out.String() != want {
		t.Errorf("stdout:\n got: %q\nwant: %q", out.String(), want)
	}
	if got, want := errb.String(), "cblint: 1 packages, 2 findings, 0 suppressed\n"; got != want {
		t.Errorf("stderr = %q, want %q", got, want)
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
