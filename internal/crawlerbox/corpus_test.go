package crawlerbox

import (
	"context"
	"errors"
	"testing"
	"time"

	"crawlerbox/internal/dataset"
	"crawlerbox/internal/phishkit"
)

func TestAppendQueryFragment(t *testing.T) {
	// Regression: the query must be inserted before any fragment, not
	// appended after it (servers never see the fragment part).
	for _, tc := range []struct {
		url, kv, want string
	}{
		{"https://h.example/p", "otp=1", "https://h.example/p?otp=1"},
		{"https://h.example/p?a=1", "otp=2", "https://h.example/p?a=1&otp=2"},
		{"https://h.example/p#frag", "otp=3", "https://h.example/p?otp=3#frag"},
		{"https://h.example/p?a=1#frag", "otp=4", "https://h.example/p?a=1&otp=4#frag"},
		{"https://h.example/p#", "otp=5", "https://h.example/p?otp=5#"},
	} {
		if got := appendQuery(tc.url, tc.kv); got != tc.want {
			t.Errorf("appendQuery(%q, %q) = %q, want %q", tc.url, tc.kv, got, tc.want)
		}
	}
}

// analysisSummary holds every analysis field that feeds the report
// aggregates. Turnstile token values and allocated client IPs legitimately
// interleave between concurrent analyses (they never reach any aggregate),
// so the determinism contract is stated over this projection.
type analysisSummary struct {
	Outcome       Outcome
	ErrorKind     ErrorKind
	SpearPhish    bool
	Brand         string
	HotLoadsRef   bool
	Cloaks        CloakCensus
	AnalyzedAt    time.Time
	URLs          int
	Visits        int
	LandingHost   string
	LandingReg    string
	LandingTLD    string
	DNS30DayTotal int
	DNSMaxDaily   int
}

func summarize(ma *MessageAnalysis) analysisSummary {
	s := analysisSummary{
		Outcome:     ma.Outcome,
		ErrorKind:   ma.ErrorKind,
		SpearPhish:  ma.SpearPhish,
		Brand:       ma.Brand,
		HotLoadsRef: ma.HotLoadsRef,
		Cloaks:      ma.Cloaks,
		AnalyzedAt:  ma.AnalyzedAt,
		URLs:        len(ma.Parse.URLs),
		Visits:      len(ma.Visits),
	}
	if ma.Landing != nil {
		s.LandingHost = ma.Landing.Host
		s.LandingReg = ma.Landing.Registrable
		s.LandingTLD = ma.Landing.TLD
		s.DNS30DayTotal = ma.Landing.DNS30DayTotal
		s.DNSMaxDaily = ma.Landing.DNSMaxDaily
	}
	return s
}

// corpusSummaries analyzes the first messages of a fresh seed-7 corpus with
// the given worker count. Each call builds its own world: analyses mutate
// world state (harvested credentials, issued challenge tokens), so the two
// runs under comparison must not share one.
func corpusSummaries(t *testing.T, workers int) []analysisSummary {
	t.Helper()
	c, err := dataset.Generate(dataset.Config{Seed: 7, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	pipe := New(c.Net, c.Registry)
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
	results := pipe.AnalyzeCorpus(context.Background(), specs, workers)
	out := make([]analysisSummary, len(results))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("workers=%d message %d: %v", workers, i, r.Err)
		}
		if r.Index != i {
			t.Fatalf("workers=%d result %d carries index %d", workers, i, r.Index)
		}
		out[i] = summarize(r.Analysis)
	}
	return out
}

// TestAnalyzeCorpusDeterministicAcrossWorkers is the ISSUE's race test: the
// same corpus slice analyzed with workers=1 and workers=8 must produce
// identical aggregated results, and the whole test must pass under -race.
func TestAnalyzeCorpusDeterministicAcrossWorkers(t *testing.T) {
	serial := corpusSummaries(t, 1)
	parallel := corpusSummaries(t, 8)
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	var diffs int
	for i := range serial {
		if serial[i] != parallel[i] {
			diffs++
			if diffs <= 3 {
				t.Errorf("message %d diverges:\n  workers=1: %+v\n  workers=8: %+v",
					i, serial[i], parallel[i])
			}
		}
	}
	if diffs > 3 {
		t.Errorf("... and %d more divergent messages", diffs-3)
	}
}

func TestAnalyzeCorpusCancellation(t *testing.T) {
	env := newEnv(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	specs := []MessageSpec{
		{Raw: buildMsg(t, "Click https://taken-down.example/login now"), ID: 1},
		{Raw: buildMsg(t, "Click https://taken-down.example/login again"), ID: 2},
	}
	results := env.pipe.AnalyzeCorpus(ctx, specs, 2)
	if len(results) != len(specs) {
		t.Fatalf("results = %d, want %d", len(results), len(specs))
	}
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("message %d: err = %v, want context.Canceled", i, r.Err)
		}
		if r.Analysis != nil {
			t.Errorf("message %d: analysis produced despite cancellation", i)
		}
	}
}

// recordStage is a test stage that logs its execution.
type recordStage struct {
	name string
	log  *[]string
}

func (s recordStage) Name() string { return s.name }

func (s recordStage) Run(context.Context, *Execution) error {
	*s.log = append(*s.log, s.name)
	return nil
}

func TestStageChainHaltAndCustomStages(t *testing.T) {
	env := newEnv(t)
	var log []string
	env.pipe.Stages = []Stage{ParseStage{}, recordStage{"custom", &log}}

	// A message with nothing to crawl halts at ParseStage: the custom stage
	// must not run and the outcome is already decided.
	ma, err := env.pipe.AnalyzeMessage(buildMsg(t, "Plain text, nothing to fetch."))
	if err != nil {
		t.Fatal(err)
	}
	if ma.Outcome != OutcomeNoResource {
		t.Errorf("outcome = %v, want no-web-resource", ma.Outcome)
	}
	if len(log) != 0 {
		t.Errorf("custom stage ran after a halting parse: %v", log)
	}

	// A message with a URL flows through the full custom chain.
	if _, err := env.pipe.AnalyzeMessage(buildMsg(t, "Click https://taken-down.example/login now")); err != nil {
		t.Fatal(err)
	}
	if len(log) != 1 || log[0] != "custom" {
		t.Errorf("custom stage log = %v, want [custom]", log)
	}
}

func TestDiffProbeStageInsertion(t *testing.T) {
	env := newEnv(t)
	site := phishkit.Deploy(env.net, phishkit.SiteConfig{
		Host:            "fpcloak-staged.com",
		Brand:           phishkit.BrandAcmeTravelTech,
		FingerprintGate: true,
	})
	env.pipe.Stages = []Stage{
		ParseStage{}, CrawlStage{}, InteractStage{}, DiffProbeStage{},
		ClassifyStage{}, CensusStage{}, EnrichStage{},
	}
	ma, err := env.pipe.AnalyzeMessage(buildMsg(t, "Verify your account: "+site.LandingURL))
	if err != nil {
		t.Fatal(err)
	}
	if len(ma.Probes) != 1 {
		t.Fatalf("probes = %d, want 1", len(ma.Probes))
	}
	if !ma.Probes[0].Cloaked {
		t.Error("fingerprint-gated site must be flagged by the staged probe")
	}
}
