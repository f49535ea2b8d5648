package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crawlerbox/internal/crawlerbox"
	"crawlerbox/internal/obs"
	"crawlerbox/internal/tracestore"
)

// fixedClock satisfies obs.Clock with a settable virtual time.
type fixedClock struct{ at time.Time }

func (c *fixedClock) Now() time.Time { return c.at }

// makeStore finalizes a small synthetic segment: one adjudicable phishing
// message with a span tree, and one parse-halted message without.
func makeStore(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seg.tstore")
	w, err := tracestore.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	clock := &fixedClock{at: time.Date(2024, 11, 1, 0, 0, 0, 0, time.UTC)}
	tr := obs.NewTrace(1, clock)
	root := tr.Start(obs.SpanMessage, "message")
	stage := tr.Start(obs.SpanStage, "classify")
	clock.at = clock.at.Add(50 * time.Millisecond)
	stage.SetStatus(obs.StatusOK)
	stage.End()
	root.SetStatus(obs.StatusOK)
	root.End()

	w.Add(tracestore.Verdict{
		ID: 1, Domain: "login.example", Hosts: []string{"login.example"},
		Outcome: "active-phishing", ErrorKind: "none", Adjudicable: true,
		Facts: []crawlerbox.VisitFact{{
			URL: "https://login.example/p", Host: "login.example",
			Class: crawlerbox.FactPhishForm, Status: 200, HasDOM: true,
		}},
	})
	w.Add(tracestore.Verdict{ID: 2, Outcome: "no-web-resource", ErrorKind: "none"})
	if err := w.Finalize([]*obs.Trace{tr}, []obs.Point{{Name: "runs_total", Type: "counter", Value: 1}}); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCorruptTraceInputFails pins the fail-loudly contract: truncated or
// structurally damaged JSONL must exit non-zero with a diagnostic, never
// render a silently-partial report.
func TestCorruptTraceInputFails(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	valid := `{"trace":1,"span":1,"kind":"message","name":"m","start":0,"end":10,"status":"ok"}` + "\n"
	for _, tc := range []struct {
		name, path, wantErr string
	}{
		{"empty", write("empty.jsonl", ""), "empty trace file"},
		{"no-newline", write("cut.jsonl", strings.TrimSuffix(valid, "\n")), "truncated"},
		{"bad-json", write("garbage.jsonl", valid+`{"trace":2,"span":`+"\n"), "corrupt"},
		{"orphan-parent", write("orphan.jsonl",
			valid+`{"trace":1,"span":5,"parent":9,"kind":"stage","name":"s","start":0,"end":1,"status":"ok"}`+"\n"),
			"missing parent"},
		{"two-roots", write("roots.jsonl",
			valid+`{"trace":1,"span":2,"kind":"stage","name":"s","start":0,"end":1,"status":"ok"}`+"\n"),
			"root spans"},
	} {
		var buf bytes.Buffer
		err := run([]string{tc.path}, &buf)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.wantErr)
		}
		if buf.Len() > 0 {
			t.Errorf("%s: rendered %d bytes despite the error (partial report)", tc.name, buf.Len())
		}
	}
}

// TestStoreCLI drives the store-mode flags end to end against a synthetic
// segment.
func TestStoreCLI(t *testing.T) {
	path := makeStore(t)
	out := func(args ...string) string {
		var buf bytes.Buffer
		if err := run(args, &buf); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
		return buf.String()
	}
	if got := out("-store", path); !strings.Contains(got, "traces: 2 (1 adjudicable)") {
		t.Errorf("stats output:\n%s", got)
	}
	got := out("-store", path, "-q", "domain=login.example outcome=active-phishing")
	if !strings.Contains(got, "1 match(es)") || !strings.Contains(got, "active-phishing") {
		t.Errorf("query output:\n%s", got)
	}
	got = out("-store", path, "-checklist", "1")
	if !strings.Contains(got, "[x] credential form observed") ||
		!strings.Contains(got, "MATCHES stored verdict") ||
		!strings.Contains(got, "[x] classify") {
		t.Errorf("checklist output:\n%s", got)
	}
	got = out("-store", path, "-adjudicate", "1")
	if !strings.Contains(got, "match  : yes") {
		t.Errorf("adjudicate output:\n%s", got)
	}
	if err := run([]string{"-store", path, "-q", "color=red"}, &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "valid keys") {
		t.Errorf("bad query key: err = %v", err)
	}

	// Compact through the CLI and confirm byte identity.
	compacted := filepath.Join(t.TempDir(), "compacted.tstore")
	out("-compact", compacted, path)
	a, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(compacted)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("CLI compact of a single segment changed its bytes")
	}
}

// TestTriageServer drives every HTTP endpoint through httptest.
func TestTriageServer(t *testing.T) {
	st, err := tracestore.Open(makeStore(t))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := httptest.NewServer(triageMux(st))
	defer srv.Close()

	get := func(path string, wantStatus int) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET %s: status %d, want %d\n%s", path, resp.StatusCode, wantStatus, buf.String())
		}
		return buf.String()
	}

	if got := get("/", http.StatusOK); !strings.Contains(got, "traces: 2 (1 adjudicable)") {
		t.Errorf("index page:\n%s", got)
	}
	if got := get("/api/stats", http.StatusOK); !strings.Contains(got, `"traces": 2`) {
		t.Errorf("stats JSON:\n%s", got)
	}
	got := get("/api/query?q=outcome%3Dactive-phishing+domain%3Dlogin.example", http.StatusOK)
	if !strings.Contains(got, `"id": 1`) || strings.Contains(got, `"id": 2`) {
		t.Errorf("query JSON:\n%s", got)
	}
	if got := get("/api/verdict?id=1", http.StatusOK); !strings.Contains(got, `"outcome": "active-phishing"`) {
		t.Errorf("verdict JSON:\n%s", got)
	}
	if got := get("/api/trace?id=1", http.StatusOK); !strings.Contains(got, "classify") {
		t.Errorf("trace render:\n%s", got)
	}
	if got := get("/api/trace?id=2", http.StatusOK); !strings.Contains(got, "no stored trace") {
		t.Errorf("traceless message render:\n%s", got)
	}
	if got := get("/api/checklist?id=1", http.StatusOK); !strings.Contains(got, "credential form observed") {
		t.Errorf("checklist render:\n%s", got)
	}
	got = get("/api/adjudicate?id=1", http.StatusOK)
	if !strings.Contains(got, `"match": true`) {
		t.Errorf("adjudicate JSON:\n%s", got)
	}
	get("/api/verdict?id=99", http.StatusNotFound)
	get("/api/verdict?id=zero", http.StatusBadRequest)
	get("/api/query?q=color%3Dred", http.StatusBadRequest)
	get("/nope", http.StatusNotFound)
}

// TestStoreCLIFederated drives a comma-separated -store list: the two
// segments federate with later-segment-wins overlay semantics.
func TestStoreCLIFederated(t *testing.T) {
	base := makeStore(t)
	overlay := filepath.Join(t.TempDir(), "overlay.tstore")
	w, err := tracestore.Create(overlay)
	if err != nil {
		t.Fatal(err)
	}
	w.Add(tracestore.Verdict{ID: 2, Outcome: "active-phishing", Domain: "other.example"})
	w.Add(tracestore.Verdict{ID: 9, Outcome: "cloaked-benign"})
	if err := w.Finalize(nil, nil); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := run([]string{"-store", base + "," + overlay, "-stats"}, &buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, "traces: 3") {
		t.Errorf("federated stats:\n%s", got)
	}
	buf.Reset()
	if err := run([]string{"-store", base + "," + overlay, "-q", "outcome=no-web-resource"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0 match(es)") {
		t.Errorf("shadowed base row leaked into federated query:\n%s", buf.String())
	}
}
