package crawlerbox

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"crawlerbox/internal/dataset"
	"crawlerbox/internal/obs"
	"crawlerbox/internal/phishkit"
)

// observedCorpusDumps runs the corpusSummaries workload (fresh seed-7 world,
// first 120 messages) with an Observer wired in and returns the two exports:
// the JSONL trace dump and the Prometheus metrics dump.
func observedCorpusDumps(t *testing.T, workers int) (jsonl, prom []byte) {
	t.Helper()
	c, err := dataset.Generate(dataset.Config{Seed: 7, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	pipe := New(c.Net, c.Registry)
	o := obs.New()
	pipe.Obs = o
	c.Net.Metrics = o.Metrics
	if err := pipe.AddReferences(context.Background(), c.BrandURLs); err != nil {
		t.Fatal(err)
	}
	msgs := c.Messages
	if len(msgs) > 120 {
		msgs = msgs[:120]
	}
	specs := make([]MessageSpec, len(msgs))
	for i, m := range msgs {
		specs[i] = MessageSpec{Raw: m.Raw, ID: int64(i + 1), At: m.Delivered.Add(2 * time.Hour)}
	}
	for i, r := range pipe.AnalyzeCorpus(context.Background(), specs, workers) {
		if r.Err != nil {
			t.Fatalf("workers=%d message %d: %v", workers, i, r.Err)
		}
	}
	var tb, mb bytes.Buffer
	if err := o.WriteJSONL(&tb); err != nil {
		t.Fatal(err)
	}
	if err := o.Metrics.WriteProm(&mb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), mb.Bytes()
}

// TestObservedCorpusDeterministicAcrossWorkers is the ISSUE's byte-level
// determinism test: the JSONL trace dump and the Prometheus metrics dump
// must be byte-identical for workers=1 and workers=8 (and clean under
// -race). Span timelines read each analysis's private clock fork and every
// metric write is commutative, so no schedule can perturb either export.
func TestObservedCorpusDeterministicAcrossWorkers(t *testing.T) {
	jsonl1, prom1 := observedCorpusDumps(t, 1)
	jsonl8, prom8 := observedCorpusDumps(t, 8)
	if !bytes.Equal(jsonl1, jsonl8) {
		t.Errorf("trace JSONL diverges between workers=1 (%d bytes) and workers=8 (%d bytes)",
			len(jsonl1), len(jsonl8))
		reportFirstDiffLine(t, jsonl1, jsonl8)
	}
	if !bytes.Equal(prom1, prom8) {
		t.Errorf("metrics dump diverges between workers=1 (%d bytes) and workers=8 (%d bytes)",
			len(prom1), len(prom8))
		reportFirstDiffLine(t, prom1, prom8)
	}
	if len(jsonl1) == 0 || len(prom1) == 0 {
		t.Error("observed run produced empty exports")
	}
}

// reportFirstDiffLine logs the first differing line of two dumps.
func reportFirstDiffLine(t *testing.T, a, b []byte) {
	t.Helper()
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			t.Logf("first diff at line %d:\n  workers=1: %s\n  workers=8: %s", i+1, la[i], lb[i])
			return
		}
	}
	t.Logf("dumps diverge in length: %d vs %d lines", len(la), len(lb))
}

// TestSpanStatusTaxonomy pins the stable span-attribute vocabulary: every
// Outcome and ErrorKind value must map to a distinct, non-"unknown" string
// (these strings are root-span attributes and metric labels, so renaming one
// silently breaks trace goldens and dashboards), and outcomeSpanStatus must
// mark exactly the error-page disposition as failed.
func TestSpanStatusTaxonomy(t *testing.T) {
	outcomes := []Outcome{
		OutcomeNoResource, OutcomeError, OutcomeInteraction,
		OutcomeDownload, OutcomeActivePhish, OutcomeCloaked,
		OutcomePartial,
	}
	seen := map[string]bool{}
	for _, o := range outcomes {
		s := o.String()
		if s == "unknown" || s == "" {
			t.Errorf("Outcome(%d) has no stable name", o)
		}
		if seen[s] {
			t.Errorf("Outcome name %q is not unique", s)
		}
		seen[s] = true
		want := obs.StatusOK
		if o == OutcomeError {
			want = obs.StatusError
		}
		if got := outcomeSpanStatus(o); got != want {
			t.Errorf("outcomeSpanStatus(%s) = %q, want %q", s, got, want)
		}
	}
	// Sentinel: one past the last outcome must fall through to "unknown",
	// proving the list above covers the whole enumeration.
	if got := (OutcomePartial + 1).String(); got != "unknown" {
		t.Errorf("sentinel outcome = %q; a new Outcome was added without extending this test", got)
	}

	kinds := map[ErrorKind]string{
		ErrorNone:    "none",
		ErrorNetwork: "network",
		ErrorContent: "content",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("ErrorKind(%d) = %q, want %q", k, got, want)
		}
	}
	if got := (ErrorContent + 1).String(); got != "none" {
		t.Errorf("sentinel error kind = %q; a new ErrorKind was added without extending this test", got)
	}
}

// TestForkedClockSpanTimeline is the ISSUE's per-request clock regression:
// a visit analyzed at spec.At runs on a private fork of the virtual clock,
// and every span — including the webnet request spans underneath the visit —
// must record timestamps on that fork's timeline (anchored at AnalyzedAt),
// never on the shared world clock, which must not move at all.
func TestForkedClockSpanTimeline(t *testing.T) {
	env := newEnv(t)
	o := obs.New()
	env.pipe.Obs = o
	env.net.Metrics = o.Metrics
	site := phishkit.Deploy(env.net, phishkit.SiteConfig{
		Host:  "forked-clock.com",
		Brand: phishkit.BrandAcmeTravelTech,
	})
	worldBefore := env.net.Clock.Now()
	at := worldBefore.Add(45 * 24 * time.Hour) // far from the world clock
	ma, err := env.pipe.Analyze(context.Background(),
		MessageSpec{Raw: buildMsg(t, "Verify your account: "+site.LandingURL), ID: 99, At: at})
	if err != nil {
		t.Fatal(err)
	}
	if !ma.AnalyzedAt.Equal(at) {
		t.Fatalf("AnalyzedAt = %v, want %v", ma.AnalyzedAt, at)
	}
	if !env.net.Clock.Now().Equal(worldBefore) {
		t.Errorf("world clock moved during the analysis: %v -> %v", worldBefore, env.net.Clock.Now())
	}

	traces := o.Traces()
	if len(traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(traces))
	}
	tr := traces[0]
	root := obs.Root(tr)
	if root == nil || !root.StartTime.Equal(at) {
		t.Fatalf("root span start = %v, want AnalyzedAt baseline %v", root.StartTime, at)
	}
	var requests int
	for _, s := range tr.Spans() {
		if s.StartTime.Before(at) || s.EndTime.Before(s.StartTime) {
			t.Errorf("span %d (%s %q) off the fork timeline: start=%v end=%v",
				s.ID, s.Kind, s.Name, s.StartTime, s.EndTime)
		}
		if s.Kind == obs.SpanRequest {
			requests++
			if !s.StartTime.After(worldBefore) {
				t.Errorf("request span %q stamped from the world clock: start=%v", s.Name, s.StartTime)
			}
		}
	}
	if requests == 0 {
		t.Error("no request spans recorded under the visit")
	}
	if root.Duration() <= 0 {
		t.Error("root span has no virtual duration despite network round trips")
	}
}

// TestCorpusCancellationObserved covers mid-corpus cancellation: specs
// never started report a wrapped, errors.Is-compatible context error and
// carry the Skipped marker. (The skipped-count metric belongs to the run
// loop that owns the observer; report's tests pin it.)
func TestCorpusCancellationObserved(t *testing.T) {
	env := newEnv(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	specs := []MessageSpec{
		{Raw: buildMsg(t, "Click https://taken-down.example/login now"), ID: 1},
		{Raw: buildMsg(t, "Click https://taken-down.example/login again"), ID: 2},
		{Raw: buildMsg(t, "Click https://taken-down.example/login later"), ID: 3},
	}
	results := env.pipe.AnalyzeCorpus(ctx, specs, 2)
	skipped := 0
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("message %d: err = %v, want context.Canceled", i, r.Err)
		}
		if r.Skipped {
			skipped++
			if r.Analysis != nil {
				t.Errorf("message %d: skipped spec carries an analysis", i)
			}
		}
	}
	if skipped == 0 {
		t.Fatal("pre-cancelled run started specs it should have skipped")
	}
}
