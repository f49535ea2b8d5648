package crawlerbox

import (
	"bytes"
	"context"
	"testing"
	"time"

	"crawlerbox/internal/dataset"
	"crawlerbox/internal/obs"
	"crawlerbox/internal/phishkit"
	"crawlerbox/internal/resilience"
)

// faultedCorpusDumps runs the example corpus (seed 42, tenth scale — the
// same world the CLIs default to) with the resilience layer armed at the
// default 10% fault rate, and returns the observability exports plus the
// per-outcome message counts.
func faultedCorpusDumps(t *testing.T, workers int) (jsonl, prom []byte, outcomes map[Outcome]int) {
	t.Helper()
	c, err := dataset.Generate(dataset.Config{Seed: 42, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	pipe := New(c.Net, c.Registry)
	pipe.Resilience = resilience.DefaultPolicy()
	o := obs.New()
	pipe.Obs = o
	c.Net.Metrics = o.Metrics
	if err := pipe.AddReferences(context.Background(), c.BrandURLs); err != nil {
		t.Fatal(err)
	}
	specs := make([]MessageSpec, len(c.Messages))
	for i, m := range c.Messages {
		specs[i] = MessageSpec{Raw: m.Raw, ID: int64(i + 1), At: m.Delivered.Add(2 * time.Hour)}
	}
	outcomes = map[Outcome]int{}
	for i, r := range pipe.AnalyzeCorpus(context.Background(), specs, workers) {
		if r.Err != nil {
			t.Fatalf("workers=%d message %d: %v", workers, i, r.Err)
		}
		outcomes[r.Analysis.Outcome]++
	}
	var tb, mb bytes.Buffer
	if err := o.WriteJSONL(&tb); err != nil {
		t.Fatal(err)
	}
	if err := o.Metrics.WriteProm(&mb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), mb.Bytes(), outcomes
}

// TestFaultedCorpusDeterministicAcrossWorkers is the resilience PR's
// acceptance test: with seeded faults injected at the default 10% rate, the
// corpus run must (a) complete without hard errors, (b) recover at least one
// operation through retries and degrade at least one message to
// OutcomePartial, and (c) produce byte-identical report, trace, and metrics
// output for workers=1 and workers=8 (and stay clean under -race) — fault
// draws, jitter, burst positions, and breaker states are all per-message
// state keyed by the message seed, so no schedule can perturb them.
func TestFaultedCorpusDeterministicAcrossWorkers(t *testing.T) {
	jsonl1, prom1, out1 := faultedCorpusDumps(t, 1)
	jsonl8, prom8, out8 := faultedCorpusDumps(t, 8)

	if !bytes.Equal(jsonl1, jsonl8) {
		t.Errorf("fault-injected trace JSONL diverges between workers=1 (%d bytes) and workers=8 (%d bytes)",
			len(jsonl1), len(jsonl8))
		reportFirstDiffLine(t, jsonl1, jsonl8)
	}
	if !bytes.Equal(prom1, prom8) {
		t.Errorf("fault-injected metrics dump diverges between workers=1 (%d bytes) and workers=8 (%d bytes)",
			len(prom1), len(prom8))
		reportFirstDiffLine(t, prom1, prom8)
	}
	for o, n := range out1 {
		if out8[o] != n {
			t.Errorf("outcome %v: %d messages at workers=1, %d at workers=8", o, n, out8[o])
		}
	}

	if out1[OutcomePartial] == 0 {
		t.Error("no message degraded to partial-evidence under 10% faults")
	}
	prom := string(prom1)
	for _, metric := range []string{
		"crawlerbox_retries_total",
		"crawlerbox_retry_recovered_total",
		"crawlerbox_retry_exhausted_total",
		"crawlerbox_breaker_open_total",
		"webnet_faults_injected_total",
	} {
		if !metricPositive(prom, metric) {
			t.Errorf("metric %s absent or zero in fault-injected run", metric)
		}
	}
	if !bytes.Contains(jsonl1, []byte(`"kind":"retry"`)) {
		t.Error("trace contains no retry spans")
	}
}

// metricPositive reports whether the Prometheus dump has a sample of name
// (any label set) with a value other than a bare zero.
func metricPositive(prom, name string) bool {
	for _, line := range bytes.Split([]byte(prom), []byte("\n")) {
		if !bytes.HasPrefix(line, []byte(name)) {
			continue
		}
		fields := bytes.Fields(line)
		if len(fields) == 2 && !bytes.Equal(fields[1], []byte("0")) {
			return true
		}
	}
	return false
}

// TestAnalyzeMessageMatchesAnalyze pins the API-consolidation contract:
// AnalyzeMessage is a thin shim over Analyze — on a fresh pipeline it must
// produce the same analysis as Analyze with the spec it forwards (the
// pipeline counter's first seed, no explicit analysis time).
func TestAnalyzeMessageMatchesAnalyze(t *testing.T) {
	deploy := func(env *testEnv) []byte {
		site := phishkit.Deploy(env.net, phishkit.SiteConfig{
			Host:  "acmetraveltech-sso.buzz",
			Brand: phishkit.BrandAcmeTravelTech,
		})
		return buildMsg(t, "Your password expires today. Renew: "+site.LandingURL)
	}

	envA := newEnv(t)
	maA, errA := envA.pipe.AnalyzeMessage(deploy(envA))

	envB := newEnv(t)
	maB, errB := envB.pipe.Analyze(context.Background(), MessageSpec{Raw: deploy(envB), ID: 1})

	if errA != nil || errB != nil {
		t.Fatalf("errors: AnalyzeMessage=%v Analyze=%v", errA, errB)
	}
	if maA.Outcome != OutcomeActivePhish {
		t.Fatalf("outcome = %v, want active-phishing", maA.Outcome)
	}
	if maA.Outcome != maB.Outcome {
		t.Errorf("outcome diverges: AnalyzeMessage=%v Analyze=%v", maA.Outcome, maB.Outcome)
	}
	if len(maA.Visits) != len(maB.Visits) {
		t.Errorf("visit count diverges: %d vs %d", len(maA.Visits), len(maB.Visits))
	}
	if maA.Brand != maB.Brand || maA.SpearPhish != maB.SpearPhish {
		t.Errorf("classification diverges: %q/%v vs %q/%v",
			maA.Brand, maA.SpearPhish, maB.Brand, maB.SpearPhish)
	}
}
