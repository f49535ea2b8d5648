package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"crawlerbox/internal/crawlerbox"
	"crawlerbox/internal/ingest"
)

// TestRecordReplayDeterminism drives the CLI end to end: record a canned
// ingest log from the corpus, replay it at two worker counts, and require
// byte-identical verdict streams and counter lines.
func TestRecordReplayDeterminism(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "canned.ingestlog")

	var buf bytes.Buffer
	if err := run([]string{"-record", logPath, "-n", "30", "-scale", "0.1"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "recorded 30 specs") {
		t.Fatalf("record output: %s", buf.String())
	}

	replay := func(workers string) (string, string) {
		out := filepath.Join(dir, "stream-"+workers+".jsonl")
		var rbuf bytes.Buffer
		if err := run([]string{"-replay", logPath, "-out", out, "-scale", "0.1", "-workers", workers}, &rbuf); err != nil {
			t.Fatal(err)
		}
		stream, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(stream), rbuf.String()
	}
	stream1, stats1 := replay("1")
	stream8, stats8 := replay("8")
	if stream1 != stream8 {
		t.Fatal("verdict streams differ between -workers 1 and -workers 8")
	}
	if stats1 != stats8 {
		t.Fatalf("counter lines differ:\n%s\n%s", stats1, stats8)
	}
	if lines := strings.Count(stream1, "\n"); lines != 30 {
		t.Fatalf("stream has %d lines, want 30", lines)
	}
	if !strings.Contains(stats1, `"submitted":30`) {
		t.Fatalf("counters line: %s", stats1)
	}
}

// TestSharedOutputFlags pins that no shared output-file flag is silently
// dropped: -replay writes -trace and -metrics after the drain without
// changing its stdout, and a flag the mode never writes fails the run with
// an error naming it, before any file is created.
func TestSharedOutputFlags(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "canned.ingestlog")
	if err := run([]string{"-record", logPath, "-n", "5", "-scale", "0.1"}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "trace.jsonl")
	metricsPath := filepath.Join(dir, "metrics.prom")
	var plain, exported bytes.Buffer
	if err := run([]string{"-replay", logPath, "-out", filepath.Join(dir, "a.jsonl"), "-scale", "0.1"}, &plain); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-replay", logPath, "-out", filepath.Join(dir, "b.jsonl"), "-scale", "0.1",
		"-trace", tracePath, "-metrics", metricsPath}, &exported); err != nil {
		t.Fatal(err)
	}
	if plain.String() != exported.String() {
		t.Errorf("exports changed replay stdout:\n%s\n%s", plain.String(), exported.String())
	}
	for _, path := range []string{tracePath, metricsPath} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: stat %v, want a non-empty file", path, err)
		}
	}

	out := filepath.Join(dir, "never-written")
	journal := filepath.Join(dir, "journal.log")
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-evidence", []string{"-replay", logPath, "-evidence", out}},
		{"-evidence", []string{"-record", filepath.Join(dir, "r.log"), "-evidence", out}},
		{"-trace", []string{"-serve", "127.0.0.1:0", "-log", journal, "-trace", out}},
		{"-metrics", []string{"-serve", "127.0.0.1:0", "-log", journal, "-metrics", out}},
		{"-tracestore", []string{"-serve", "127.0.0.1:0", "-log", journal, "-tracestore", out}},
	} {
		err := run(tc.args, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%v: err = %v, want an error naming %s", tc.args, err, tc.flag)
		}
		for _, path := range []string{out, journal} {
			if _, err := os.Stat(path); err == nil {
				t.Errorf("%v: rejected run created %s", tc.args, path)
			}
		}
	}
}

// releasableAnalyzer blocks every analysis until Release, so the API tests
// can observe in-flight state without sleeping.
type releasableAnalyzer struct {
	release chan struct{}
	once    sync.Once
}

func (a *releasableAnalyzer) Analyze(ctx context.Context, spec crawlerbox.MessageSpec) (*crawlerbox.MessageAnalysis, error) {
	select {
	case <-a.release:
	case <-ctx.Done():
	}
	return nil, ctx.Err()
}

func (a *releasableAnalyzer) Release() { a.once.Do(func() { close(a.release) }) }

// TestDaemonAPI drives every HTTP endpoint through httptest: accept,
// dedup, overload shedding, verdict lookup before and after completion,
// and the draining refusal.
func TestDaemonAPI(t *testing.T) {
	ra := &releasableAnalyzer{release: make(chan struct{})}
	keyer := func(raw []byte) string { return string(raw) }
	svc := ingest.NewService(ra, keyer, nil,
		ingest.WithWorkers(1), ingest.WithMaxPending(2))
	svc.Start(context.Background())
	ts := httptest.NewServer(daemonMux(svc))
	defer ts.Close()

	submit := func(body string) *http.Response {
		resp, err := http.Post(ts.URL+"/api/submit", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	get := func(path string, wantStatus int) string {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET %s: status %d, want %d\n%s", path, resp.StatusCode, wantStatus, buf.String())
		}
		return buf.String()
	}
	rawA := `"` + "YQ==" + `"` // base64 "a"
	rawC := `"` + "Yw==" + `"` // base64 "c"

	if resp := submit(`{"id":1,"raw":` + rawA + `}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1: status %d", resp.StatusCode)
	}
	// Same key: admitted as a waiter on the in-flight analysis.
	if resp := submit(`{"id":2,"raw":` + rawA + `}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2: status %d", resp.StatusCode)
	}
	// Admission control: two pending is the limit.
	if resp := submit(`{"id":3,"raw":` + rawC + `}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit 3: status %d, want 503", resp.StatusCode)
	}
	// Malformed submissions.
	if resp := submit(`{not json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json: status %d", resp.StatusCode)
	}
	if resp := submit(`{"id":0,"raw":` + rawA + `}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("zero id: status %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/api/submit")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET submit: status %d", resp.StatusCode)
	}

	stats := get("/api/stats", http.StatusOK)
	var parsed struct {
		Counters ingest.Counters `json:"counters"`
		Pending  int             `json:"pending"`
	}
	if err := json.Unmarshal([]byte(stats), &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Counters.Submitted != 2 || parsed.Counters.CacheHits != 1 ||
		parsed.Counters.Rejected != 1 || parsed.Pending != 2 {
		t.Fatalf("stats = %s", stats)
	}

	get("/api/verdict?id=1", http.StatusNotFound) // still in flight
	get("/api/verdict?id=zero", http.StatusBadRequest)

	ra.Release()
	if _, err := svc.Drain(); err != nil {
		t.Fatal(err)
	}

	if got := get("/api/verdict?id=1", http.StatusOK); !strings.Contains(got, `"provenance": "fresh"`) {
		t.Errorf("verdict 1:\n%s", got)
	}
	got := get("/api/verdict?id=2", http.StatusOK)
	if !strings.Contains(got, `"provenance": "cached"`) || !strings.Contains(got, `"cached_from": 1`) {
		t.Errorf("verdict 2:\n%s", got)
	}
	if resp := submit(`{"id":4,"raw":` + rawC + `}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}
	if got := get("/", http.StatusOK); !strings.Contains(got, "/api/submit") {
		t.Errorf("index page:\n%s", got)
	}
}

// TestSubmitRejectsOversizedBody pins the HTTP boundary: a body larger
// than maxSubmitBytes is answered 413 and not admitted, while a spec just
// under the cap is accepted.
func TestSubmitRejectsOversizedBody(t *testing.T) {
	ra := &releasableAnalyzer{release: make(chan struct{})}
	svc := ingest.NewService(ra, func(raw []byte) string { return string(raw) }, nil, ingest.WithWorkers(1))
	svc.Start(context.Background())
	ts := httptest.NewServer(daemonMux(svc))
	defer ts.Close()
	defer func() {
		ra.Release()
		svc.Drain()
	}()

	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/api/submit", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	frame := func(rawLen int) string {
		return `{"id":1,"raw":"` + strings.Repeat("A", rawLen) + `"}`
	}
	overhead := len(frame(0))
	if got := post(frame(maxSubmitBytes - overhead + 1)); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec: status %d, want 413", got)
	}
	if counters, _ := svc.Stats(); counters.Submitted != 0 {
		t.Fatalf("oversized spec was admitted: %+v", counters)
	}
	// The largest valid base64 payload (a multiple of 4) that fits.
	if got := post(frame((maxSubmitBytes - overhead) &^ 3)); got != http.StatusAccepted {
		t.Fatalf("spec just under maxSubmitBytes: status %d, want 202", got)
	}
}

// TestSubmitDuplicateIDConflict pins the duplicate-ID answer: a second
// submission of an ID is answered 409 and not journaled, so the daemon
// restarts on its journal, and the restarted daemon still answers 409
// for the recovered ID.
func TestSubmitDuplicateIDConflict(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.log")
	keyer := func(raw []byte) string { return string(raw) }
	ra := &releasableAnalyzer{release: make(chan struct{})}
	ra.Release()
	start := func(log *ingest.Log, resume bool) (*ingest.Service, *httptest.Server) {
		svc := ingest.NewService(ra, keyer, log, ingest.WithWorkers(1))
		svc.Start(context.Background())
		if resume {
			if err := svc.Resume(context.Background(), journal); err != nil {
				t.Fatal(err)
			}
		}
		return svc, httptest.NewServer(daemonMux(svc))
	}
	post := func(ts *httptest.Server, body string) int {
		resp, err := http.Post(ts.URL+"/api/submit", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	log, err := ingest.CreateLog(journal)
	if err != nil {
		t.Fatal(err)
	}
	svc, ts := start(log, false)
	if got := post(ts, `{"id":1,"raw":"YQ=="}`); got != http.StatusAccepted {
		t.Fatalf("first submit of id 1: status %d, want 202", got)
	}
	if got := post(ts, `{"id":1,"raw":"Yg=="}`); got != http.StatusConflict {
		t.Fatalf("second submit of id 1: status %d, want 409", got)
	}
	ts.Close()
	if _, err := svc.Drain(); err != nil {
		t.Fatal(err)
	}

	state, err := ingest.ReadLog(journal)
	if err != nil {
		t.Fatalf("restart: reading the journal: %v", err)
	}
	if len(state.Specs) != 1 || len(state.Done) != 1 {
		t.Fatalf("journal holds %d specs and %d done records, want 1 and 1", len(state.Specs), len(state.Done))
	}
	if log, err = ingest.OpenLog(journal); err != nil {
		t.Fatal(err)
	}
	svc, ts = start(log, true)
	defer ts.Close()
	if got := post(ts, `{"id":1,"raw":"Yw=="}`); got != http.StatusConflict {
		t.Fatalf("restarted daemon, submit of id 1: status %d, want 409", got)
	}
	if got := post(ts, `{"id":2,"raw":"Yw=="}`); got != http.StatusAccepted {
		t.Fatalf("restarted daemon, submit of id 2: status %d, want 202", got)
	}
	if _, err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
}
