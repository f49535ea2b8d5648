package report

import (
	"context"
	"path/filepath"
	"testing"

	"crawlerbox/internal/dataset"
	"crawlerbox/internal/evstore"
	"crawlerbox/internal/webnet"
)

// TestEvidenceStoreEquivalence pins the WithEvidencePath contract: spilling
// evidence to disk changes where the bytes live, never what the run reports.
// A spilled run must render every artifact byte-identically to a fully
// in-RAM run of the same seed.
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
		}
	}

	cfg := dataset.Config{Seed: 42, Scale: 0.1}
	ram, err := dataset.Stream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ramRun, err := Analyze(context.Background(), ram, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}

	spilled, err := dataset.Stream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	evPath := filepath.Join(t.TempDir(), "ev.bin")
	spillRun, err := Analyze(context.Background(), spilled, WithWorkers(4), WithEvidencePath(evPath))
	if err != nil {
		t.Fatal(err)
	}
	// Analyze closed its store; point the spilled ledger at a read-only
	// reopening so the traffic scans below decode from disk.
	store, err := evstore.Open(evPath)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	spilled.Net.SpillTrafficTo(store)

	want, got := render(ramRun), render(spillRun)
	for key := range want {
		if want[key] != got[key] {
			t.Errorf("%s diverges between in-RAM and spilled runs:\n--- ram ---\n%s\n--- spilled ---\n%s", key, want[key], got[key])
		}
	}
	// HotLoadReferrals scans the traffic ledger, so it exercises the
	// spilled EachTraffic decode path end to end.
	if a, b := ramRun.HotLoadReferrals(), spillRun.HotLoadReferrals(); a != b {
		t.Errorf("HotLoadReferrals: ram %d, spilled %d", a, b)
	}
	if a, b := exchanges(ram.Net), exchanges(spilled.Net); a != b {
		t.Errorf("exchanges: ram %d, spilled %d", a, b)
	}
	if store.Size() <= 8 {
		t.Error("evidence store stayed empty — nothing spilled")
	}
	if spillRun.Errors != ramRun.Errors {
		t.Errorf("Errors: ram %d, spilled %d", ramRun.Errors, spillRun.Errors)
	}
}

// exchanges counts the exchanges in a network's traffic ledger.
func exchanges(n *webnet.Internet) int {
	count := 0
	n.EachTraffic(func(*webnet.LoggedExchange) bool {
		count++
		return true
	})
	return count
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
