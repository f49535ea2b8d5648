package report

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"testing"

	"crawlerbox/internal/dataset"
	"crawlerbox/internal/evstore"
	"crawlerbox/internal/webnet"
)

// TestEvidenceStoreEquivalence pins the WithEvidencePath contract: spilling
// evidence to disk changes where the bytes live, never what the run reports.
// Spilled runs must render every artifact, the referral count included,
// byte-identically to a fully in-RAM run of the same seed, at one worker
// and at four; and the spilled exchange ledgers must hold the same traffic
// at both worker counts.
func TestEvidenceStoreEquivalence(t *testing.T) {
	render := func(r *Run) map[string]string {
		return map[string]string{
			"disposition": r.RenderDisposition(),
			"fig2":        r.RenderFigure2(),
			"table2":      r.RenderTable2(),
			"fig3":        r.RenderFigure3(),
			"spear":       r.RenderSpear(),
			"nontargeted": r.RenderNonTargeted(),
			"cloaks":      r.RenderCloaks(),
			"referrals":   strconv.Itoa(r.HotLoadReferrals()),
			"errors":      strconv.Itoa(r.Errors),
		}
	}
	cfg := dataset.Config{Seed: 42, Scale: 0.1}
	analyze := func(opts ...Option) (*dataset.Corpus, *Run) {
		c, err := dataset.Stream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		run, err := Analyze(context.Background(), c, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return c, run
	}

	_, ramRun := analyze(WithWorkers(1))
	want := render(ramRun)
	if ramRun.HotLoadReferrals() == 0 {
		t.Error("HotLoadReferrals = 0: the corpus hot-loads brand logos")
	}
	ledgers := map[int]exchangeCounts{}
	for _, workers := range []int{1, 4} {
		if workers != 1 {
			_, run := analyze(WithWorkers(workers))
			diffRenders(t, fmt.Sprintf("in-RAM run at %d workers", workers), want, render(run))
		}
		evPath := filepath.Join(t.TempDir(), "ev.bin")
		c, spillRun := analyze(WithWorkers(workers), WithEvidencePath(evPath))
		diffRenders(t, fmt.Sprintf("spilled run at %d workers", workers), want, render(spillRun))
		ledgers[workers] = ledgerCounts(t, evPath)
		// The ledger also holds the reference crawls of the brands' own
		// login pages, each of which loads its logo once; the census counts
		// the analyses' visits only.
		if got, want := ledgers[workers].referrals, spillRun.HotLoadReferrals()+len(c.BrandURLs); got != want {
			t.Errorf("%d workers: ledger holds %d logo referrals, want census %d + %d reference crawls",
				workers, got, spillRun.HotLoadReferrals(), len(c.BrandURLs))
		}
	}
	if ledgers[1] != ledgers[4] {
		t.Errorf("spilled ledgers differ: %+v at 1 worker, %+v at 4", ledgers[1], ledgers[4])
	}
	if ledgers[1].exchanges == 0 {
		t.Error("evidence store holds no exchange — nothing spilled")
	}
}

// diffRenders reports every artifact of got that differs from want.
func diffRenders(t *testing.T, what string, want, got map[string]string) {
	t.Helper()
	for key := range want {
		if want[key] != got[key] {
			t.Errorf("%s: %s diverges from the in-RAM run at 1 worker:\n--- want ---\n%s\n--- got ---\n%s", what, key, want[key], got[key])
		}
	}
}

// exchangeCounts summarizes an evidence store's exchange ledger.
type exchangeCounts struct {
	exchanges int
	// referrals counts the brand-logo requests that carried a Referer.
	referrals int
}

// ledgerCounts reopens the evidence store at path and counts its
// exchanges.
func ledgerCounts(t *testing.T, path string) exchangeCounts {
	t.Helper()
	store, err := evstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var c exchangeCounts
	if err := webnet.EachExchange(store, func(e *webnet.LoggedExchange) bool {
		c.exchanges++
		if e.Request.Path == "/assets/logo.png" && e.Request.Header("Referer") != "" {
			c.referrals++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEvidenceStoreStripsVisits checks that a spilled run hands its sink
// analyses whose bulky evidence has moved to the store once the run is
// done: Visits nil, handle valid, record readable.
func TestEvidenceStoreStripsVisits(t *testing.T) {
	evPath := filepath.Join(t.TempDir(), "ev.bin")
	_, analyses, err := collectAnalyses(dataset.Config{Seed: 7, Scale: 0.05}, WithWorkers(2), WithEvidencePath(evPath))
	if err != nil {
		t.Fatal(err)
	}
	store, err := evstore.Open(evPath)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var spilled int
	for i, ma := range analyses {
		if ma == nil {
			continue
		}
		if ma.Visits != nil {
			t.Fatalf("analysis %d retained %d visits after spill", i, len(ma.Visits))
		}
		if !ma.Evidence.Valid() {
			continue // messages with no URL never visit anything
		}
		kind, payload, err := store.At(ma.Evidence)
		if err != nil {
			t.Fatalf("analysis %d: reading evidence: %v", i, err)
		}
		if kind != evstore.KindAnalysis || len(payload) == 0 {
			t.Fatalf("analysis %d: kind=%d len=%d", i, kind, len(payload))
		}
		spilled++
	}
	if spilled == 0 {
		t.Fatal("no analysis spilled evidence")
	}
}
