package report

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"crawlerbox/internal/dataset"
	"crawlerbox/internal/resilience"
	"crawlerbox/internal/tracestore"
)

// faultyPolicy arms the recovery layer at the tracecheck fault rate so the
// store tests cover degraded visits and partial evidence, not just the
// clean path.
func faultyPolicy() *resilience.Policy {
	p := resilience.DefaultPolicy()
	p.FaultRate = 0.1
	return p
}

// writeStore analyzes the seeded corpus with the given worker count and
// persists the triage index, returning the segment path.
func writeStore(t *testing.T, dir string, workers int) string {
	t.Helper()
	path := filepath.Join(dir, "run.tstore")
	c, err := dataset.Stream(dataset.Config{Seed: 42, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(context.Background(), c,
		WithWorkers(workers),
		WithResilience(faultyPolicy()),
		WithTraceStorePath(path),
	); err != nil {
		t.Fatal(err)
	}
	return path
}

// queryAll runs a fixed set of canned queries and renders the results, so
// byte-comparison covers the query planner and the renderer, not just the
// raw segment.
func queryAll(t *testing.T, path string) string {
	t.Helper()
	st, err := tracestore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var out bytes.Buffer
	for _, qs := range []string{
		"",
		"outcome=active-phishing",
		"outcome=partial-evidence",
		"outcome=error-page errkind=network",
		"stage=classify status=error",
		"cloak=turnstile",
		"adjudicable=false limit=5",
	} {
		q, err := tracestore.ParseQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		verdicts, err := st.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		out.WriteString(tracestore.RenderVerdicts(q, verdicts))
		out.WriteString("\n")
	}
	out.WriteString(tracestore.RenderStats(st.Stats()))
	return out.String()
}

// TestTraceStoreWorkerDeterminism pins the tentpole's byte-identity
// contract under fault injection: the segment a workers=1 run finalizes is
// byte-for-byte the segment a workers=8 run finalizes, query results over
// both are identical, and compacting a segment reproduces it exactly
// (build-vs-compact identity). Run under -race this also exercises the
// concurrent Writer.Add handoff.
func TestTraceStoreWorkerDeterminism(t *testing.T) {
	serialPath := writeStore(t, t.TempDir(), 1)
	parallelPath := writeStore(t, t.TempDir(), 8)

	serial, err := os.ReadFile(serialPath)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := os.ReadFile(parallelPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("segment bytes diverge between workers=1 (%d bytes) and workers=8 (%d bytes)",
			len(serial), len(parallel))
	}

	if qs, qp := queryAll(t, serialPath), queryAll(t, parallelPath); qs != qp {
		t.Errorf("query results diverge between worker counts:\n--- serial ---\n%s\n--- parallel ---\n%s", qs, qp)
	}

	compactPath := filepath.Join(t.TempDir(), "compacted.tstore")
	if err := tracestore.Compact(compactPath, serialPath); err != nil {
		t.Fatal(err)
	}
	compacted, err := os.ReadFile(compactPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, compacted) {
		t.Fatalf("compacting a finalized segment changed its bytes (%d -> %d)", len(serial), len(compacted))
	}
	if qs, qc := queryAll(t, serialPath), queryAll(t, compactPath); qs != qc {
		t.Errorf("query results diverge between built and compacted segments:\n--- built ---\n%s\n--- compacted ---\n%s", qs, qc)
	}
}

// TestReadjudicationEquivalence pins the adjudication contract: for every
// message in the seeded fault-injected corpus, re-deriving the verdict
// from the stored evidence facts (no crawl, no pipeline) reproduces the
// outcome the live Classify stage recorded. Parse-halted and failed
// messages are carried through as fixed facts and must match trivially.
func TestReadjudicationEquivalence(t *testing.T) {
	path := writeStore(t, t.TempDir(), 4)
	st, err := tracestore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if st.Len() == 0 {
		t.Fatal("empty store")
	}
	adjudicable := 0
	for _, id := range st.IDs() {
		r, err := st.Readjudicate(id)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Match {
			t.Errorf("message %d: stored verdict %s/%s but re-adjudication derived %s/%s",
				id, r.StoredOutcome, r.StoredErrorKind, r.Outcome, r.ErrorKind)
		}
		if r.Adjudicable {
			adjudicable++
		}
	}
	if adjudicable == 0 {
		t.Error("no adjudicable messages in the corpus — the equivalence test is vacuous")
	}
}

// TestPathOptionsEquivalence pins the path-based store options: arming the
// evidence store beside the trace store leaves the segment byte-identical
// to a trace-store-only run, and the evidence file fills.
func TestPathOptionsEquivalence(t *testing.T) {
	dir := t.TempDir()
	plainPath := writeStore(t, dir, 4)

	c, err := dataset.Stream(dataset.Config{Seed: 42, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	pathStore := filepath.Join(dir, "bypath.tstore")
	evPath := filepath.Join(dir, "bypath.evidence")
	if _, err := Analyze(context.Background(), c,
		WithWorkers(4),
		WithResilience(faultyPolicy()),
		WithTraceStorePath(pathStore),
		WithEvidencePath(evPath),
	); err != nil {
		t.Fatal(err)
	}

	plain, err := os.ReadFile(plainPath)
	if err != nil {
		t.Fatal(err)
	}
	byPath, err := os.ReadFile(pathStore)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, byPath) {
		t.Fatalf("trace store written beside an evidence store diverges (%d vs %d bytes)",
			len(plain), len(byPath))
	}
	if fi, err := os.Stat(evPath); err != nil || fi.Size() == 0 {
		t.Fatalf("evidence store at %s: stat %v, want a non-empty file", evPath, err)
	}
}
