package report

import (
	"context"
	"strings"
	"testing"

	"crawlerbox/internal/crawler"
	"crawlerbox/internal/dataset"
)

// _sharedRun caches one analyzed corpus for all report tests (analysis over
// a quarter-scale corpus takes ~1s; regenerating per test would dominate).
var (
	_sharedConfig = dataset.Config{Seed: 42, Scale: 0.25}
	_sharedRun    *Run
)

func sharedRun(t *testing.T) *Run {
	t.Helper()
	if _sharedRun == nil {
		c, err := dataset.Stream(_sharedConfig)
		if err != nil {
			t.Fatal(err)
		}
		run, err := Analyze(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		_sharedRun = run
	}
	return _sharedRun
}

func TestAnalyzeNoHardErrors(t *testing.T) {
	run := sharedRun(t)
	if run.Errors != 0 {
		t.Errorf("analysis errors = %d", run.Errors)
	}
	total := 0
	for _, row := range run.Disposition() {
		total += row.Count
	}
	if total != run.Corpus.Len() {
		t.Errorf("analyses = %d, messages = %d", total, run.Corpus.Len())
	}
}

func TestDispositionMatchesPaperShape(t *testing.T) {
	run := sharedRun(t)
	rows := run.Disposition()
	want := map[string]float64{
		"no-web-resource":      49.6,
		"error-page":           15.9,
		"interaction-required": 4.5,
		"active-phishing":      29.9,
	}
	for _, row := range rows {
		target, ok := want[row.Label]
		if !ok {
			continue
		}
		if row.Percent < target-4 || row.Percent > target+4 {
			t.Errorf("%s = %.1f%%, paper reports %.1f%%", row.Label, row.Percent, target)
		}
	}
}

func TestSpearShareMatchesPaper(t *testing.T) {
	run := sharedRun(t)
	sp := run.Spear()
	if sp.SpearPercent < 65 || sp.SpearPercent > 82 {
		t.Errorf("spear share = %.1f%%, paper reports 73.3%%", sp.SpearPercent)
	}
	if sp.HotLoadPercent < 18 || sp.HotLoadPercent > 42 {
		t.Errorf("hot-load share = %.1f%%, paper reports 29.8%%", sp.HotLoadPercent)
	}
	if sp.MedianMsgsPerDomain != 1 {
		t.Errorf("median msgs/domain = %.1f, paper reports 1", sp.MedianMsgsPerDomain)
	}
	if sp.MaxMsgsPerDomain < 5 {
		t.Errorf("max msgs/domain = %d, expected a heavy hitter", sp.MaxMsgsPerDomain)
	}
}

func TestTurnstileShareMatchesPaper(t *testing.T) {
	run := sharedRun(t)
	ts, rc := run.TurnstileShare()
	if ts < 64 || ts > 85 {
		t.Errorf("Turnstile share = %.1f%%, paper reports 74.4%%", ts)
	}
	if rc < 15 || rc > 35 {
		t.Errorf("reCAPTCHA share = %.1f%%, paper reports 24.8%%", rc)
	}
	if rc >= ts {
		t.Error("reCAPTCHA rides on Turnstile and must be rarer")
	}
}

func TestTable2ComDominates(t *testing.T) {
	run := sharedRun(t)
	dist := run.Table2()
	if len(dist) == 0 {
		t.Fatal("empty TLD distribution")
	}
	if dist[0].TLD != ".com" {
		t.Errorf("top TLD = %s, paper reports .com (50.2%%)", dist[0].TLD)
	}
	if dist[0].Percent < 35 || dist[0].Percent > 65 {
		t.Errorf(".com share = %.1f%%", dist[0].Percent)
	}
	var sawRu bool
	for _, row := range dist[:min(4, len(dist))] {
		if row.TLD == ".ru" {
			sawRu = true
		}
	}
	if !sawRu {
		t.Error(".ru must rank in the top TLDs (paper: rank 2)")
	}
}

func TestFigure2DownwardTrendAndTTest(t *testing.T) {
	run := sharedRun(t)
	f2, err := run.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if f2.Mean2023 <= f2.Mean2024 {
		t.Errorf("2023 mean (%.1f) must exceed 2024 mean (%.1f)", f2.Mean2023, f2.Mean2024)
	}
	// The rank-paired comparison reaches high significance; the calendar
	// pairing cannot, given the published aggregates (see EXPERIMENTS.md).
	if f2.TTestRank.P >= 0.05 {
		t.Errorf("rank-paired t-test p = %.4f, want < 0.05 (paper reports 0.008)", f2.TTestRank.P)
	}
	if f2.TTest.MeanDif <= 0 {
		t.Errorf("calendar-paired mean difference = %.1f, want positive", f2.TTest.MeanDif)
	}
}

func TestFigure3TimelineShape(t *testing.T) {
	run := sharedRun(t)
	f3, err := run.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: medians 575 h (A) and 185 h (B); generous bands at 0.25 scale.
	if f3.MedianAHours < 350 || f3.MedianAHours > 950 {
		t.Errorf("median timedeltaA = %.0f h, paper reports 575", f3.MedianAHours)
	}
	if f3.MedianBHours < 100 || f3.MedianBHours > 320 {
		t.Errorf("median timedeltaB = %.0f h, paper reports 185", f3.MedianBHours)
	}
	if f3.MedianBHours >= f3.MedianAHours {
		t.Error("cert lead must be shorter than registration lead")
	}
	// Fat-tailed, right-skewed distributions.
	if f3.KurtosisA < 3 {
		t.Errorf("kurtosis A = %.1f, expected strongly fat-tailed", f3.KurtosisA)
	}
	// Far more registration outliers than certificate outliers (102 vs 5).
	if f3.OverA <= f3.OverB*3 {
		t.Errorf("overA=%d overB=%d: registration outliers must dominate", f3.OverA, f3.OverB)
	}
}

func TestDNSVolumeMediansLow(t *testing.T) {
	run := sharedRun(t)
	dns := run.DNSVolumes()
	// Paper: single 43.0 total / 18.5 max-daily; multi 100.5 / 50.5.
	if dns.SingleMedianTotal < 20 || dns.SingleMedianTotal > 80 {
		t.Errorf("single-domain median total = %.1f, paper reports 43.0", dns.SingleMedianTotal)
	}
	if dns.MultiMedianTotal <= dns.SingleMedianTotal {
		t.Error("multi-message domains must show higher DNS volume")
	}
	if len(dns.Top3Totals) == 0 || dns.Top3Totals[0] < 1_000_000 {
		t.Errorf("top DNS volume = %v, paper reports 665M", dns.Top3Totals)
	}
}

func TestDomainSyntaxMinority(t *testing.T) {
	run := sharedRun(t)
	syn := run.DomainSyntax()
	// The key finding: deceptive syntax is a small minority (15.7%).
	if syn.Percent > 30 {
		t.Errorf("deceptive share = %.1f%%, paper reports 15.7%%", syn.Percent)
	}
	if syn.Deceptive == 0 {
		t.Error("some deceptive domains must exist")
	}
	if syn.Punycode != 0 {
		t.Errorf("punycode = %d, paper reports none", syn.Punycode)
	}
}

func TestCloakPrevalenceOrdering(t *testing.T) {
	run := sharedRun(t)
	rows := run.CloakPrevalence()
	counts := map[string]int{}
	for _, r := range rows {
		counts[r.Technique] = r.Messages
	}
	if counts["turnstile"] == 0 {
		t.Fatal("turnstile missing from census")
	}
	if counts["turnstile"] < counts["recaptcha"] {
		t.Error("turnstile must outnumber recaptcha")
	}
	for _, name := range []string{"console-hijack", "hue-rotate", "noise-padding",
		"faulty-qr", "otp-prompt", "victim-check", "tokenized-url"} {
		if counts[name] == 0 {
			t.Errorf("technique %q absent from census", name)
		}
	}
	// Ratio check: console hijack (295 in paper) >> debugger timer (10).
	if counts["console-hijack"] <= counts["debugger-timer"] {
		t.Errorf("console=%d debugger=%d: ordering broken",
			counts["console-hijack"], counts["debugger-timer"])
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	run := sharedRun(t)
	for name, text := range map[string]string{
		"disposition": run.RenderDisposition(),
		"figure2":     run.RenderFigure2(),
		"table2":      run.RenderTable2(),
		"figure3":     run.RenderFigure3(),
		"spear":       run.RenderSpear(),
		"cloaks":      run.RenderCloaks(),
	} {
		if len(strings.TrimSpace(text)) < 40 {
			t.Errorf("%s renderer output too short:\n%s", name, text)
		}
	}
}

func TestRenderTable1(t *testing.T) {
	a, err := crawler.RunAssessment(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	text := RenderTable1(a)
	if !strings.Contains(text, "NotABot") || !strings.Contains(text, "Turnstile") {
		t.Errorf("Table I render incomplete:\n%s", text)
	}
	if !strings.Contains(text, "v*") {
		t.Errorf("Table I should carry the headless footnote marker:\n%s", text)
	}
}

// TestAnalyzeParallelAggregatesBitwiseIdentical pins the determinism
// contract: running the corpus through the worker pool must yield rendered
// aggregates byte-identical to the serial run, every one served from the
// census the run folds in spec order. Each run gets a fresh same-seed
// corpus because analysis mutates world state (harvested credentials,
// challenge tokens). Run under -race this also exercises the handoff from
// the producer and the workers to the census.
func TestAnalyzeParallelAggregatesBitwiseIdentical(t *testing.T) {
	render := func(workers int) string {
		c, err := dataset.Stream(dataset.Config{Seed: 42, Scale: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		run, err := Analyze(context.Background(), c, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if run.Errors != 0 {
			t.Fatalf("workers=%d: %d analysis errors", workers, run.Errors)
		}
		var sb strings.Builder
		for _, text := range []string{
			run.RenderDisposition(), run.RenderFigure2(), run.RenderTable2(),
			run.RenderFigure3(), run.RenderSpear(), run.RenderNonTargeted(),
			run.RenderCloaks(),
		} {
			sb.WriteString(text)
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		sl := strings.Split(serial, "\n")
		pl := strings.Split(parallel, "\n")
		for i := 0; i < len(sl) && i < len(pl); i++ {
			if sl[i] != pl[i] {
				t.Fatalf("aggregates diverge at line %d:\n  workers=1: %q\n  workers=8: %q",
					i, sl[i], pl[i])
			}
		}
		t.Fatalf("aggregates diverge in length: %d vs %d lines", len(sl), len(pl))
	}
}

func TestNonTargetedBrandBreakdown(t *testing.T) {
	run := sharedRun(t)
	rows := run.NonTargetedBrands()
	if len(rows) == 0 {
		t.Fatal("no non-targeted brands classified")
	}
	counts := map[string]int{}
	var total int
	for _, r := range rows {
		counts[r.Brand] = r.Domains
		total += r.Domains
	}
	// Generic Microsoft pages dominate the non-targeted set in the paper
	// (44 of 130); OTHER aggregates the webmail-style pages.
	if counts["MICROSOFT"] == 0 {
		t.Errorf("no generic Microsoft pages classified: %v", rows)
	}
	if counts["OTHER"] == 0 {
		t.Errorf("no OTHER pages classified: %v", rows)
	}
	if total < 5 {
		t.Errorf("only %d non-targeted domains classified", total)
	}
}
