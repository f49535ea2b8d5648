package crawlerbox

import (
	"context"
	"errors"
	"testing"
	"time"

	"crawlerbox/internal/dataset"
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
// the given worker count, after setup (when given) adjusts the pipeline.
// Each call builds its own world: analyses mutate world state (harvested
// credentials, issued challenge tokens), so the two runs under comparison
// must not share one.
func corpusSummaries(t *testing.T, workers int, setup ...func(*Pipeline)) []analysisSummary {
	t.Helper()
	c, err := dataset.Stream(dataset.Config{Seed: 7, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	pipe := New(c.Net, c.Registry)
	if err := pipe.AddReferences(context.Background(), c.BrandURLs); err != nil {
		t.Fatal(err)
	}
	for _, fn := range setup {
		fn(pipe)
	}
	results := analyzeAll(context.Background(), pipe, corpusSpecs(c, 120), workers)
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

// Browsers that re-seed generators from the pipeline's free list draw the
// streams browsers with generators of their own draw, so every analysis
// comes out the same, serially and on four workers.
func TestPooledGeneratorsMatchOwnGenerators(t *testing.T) {
	own := corpusSummaries(t, 1, func(p *Pipeline) { p.generators = nil })
	for _, workers := range []int{1, 4} {
		pooled := corpusSummaries(t, workers)
		for i := range own {
			if own[i] != pooled[i] {
				t.Fatalf("workers=%d message %d diverges:\n  own generators:    %+v\n  pooled generators: %+v",
					workers, i, own[i], pooled[i])
			}
		}
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
	results := analyzeAll(ctx, env.pipe, specs, 2)
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

// corpusSpecs renders the first n messages of c (all of them when n is 0)
// as specs the way the corpus runners do: sequential IDs, analyzed two
// hours after delivery.
func corpusSpecs(c *dataset.Corpus, n int) []MessageSpec {
	var specs []MessageSpec
	c.Each(func(i int, m *dataset.Message) bool {
		specs = append(specs, MessageSpec{Raw: m.Raw, ID: int64(i + 1), At: m.Delivered.Add(2 * time.Hour)})
		return n == 0 || len(specs) < n
	})
	return specs
}

// analyzeAll runs specs through AnalyzeStream with p.Analyze and collects
// the results in input order.
func analyzeAll(ctx context.Context, p *Pipeline, specs []MessageSpec, workers int) []CorpusResult {
	results := make([]CorpusResult, len(specs))
	ch := make(chan IndexedSpec, len(specs))
	for i, spec := range specs {
		ch <- IndexedSpec{Index: i, Spec: spec}
	}
	close(ch)
	AnalyzeStream(ctx, p.Analyze, ch, workers, func(res CorpusResult) {
		results[res.Index] = res
	})
	return results
}
