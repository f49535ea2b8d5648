package tracestore

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"crawlerbox/internal/crawlerbox"
	"crawlerbox/internal/evstore"
	"crawlerbox/internal/obs"
)

// writeSegment finalizes a synthetic segment with the given verdicts and
// no traces or metrics.
func writeSegment(t *testing.T, path string, verdicts ...Verdict) {
	t.Helper()
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range verdicts {
		w.Add(v)
	}
	if err := w.Finalize(nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQueryRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.tstore")
	writeSegment(t, path,
		Verdict{ID: 1, Outcome: "error-page", ErrorKind: "network", Domain: "dead.example", Adjudicable: true,
			Facts: []crawlerbox.VisitFact{{URL: "https://dead.example/x", Host: "dead.example", Class: crawlerbox.FactNetError}}},
		Verdict{ID: 2, Outcome: "active-phishing", ErrorKind: "none", Domain: "login.example",
			Hosts: []string{"cdn.example", "login.example"}, Cloaks: []string{"turnstile"}, Adjudicable: true,
			Facts: []crawlerbox.VisitFact{{URL: "https://login.example/p", Host: "login.example", Class: crawlerbox.FactPhishForm, Status: 200, HasDOM: true}}},
		Verdict{ID: 3, Outcome: "no-web-resource", ErrorKind: "none"},
	)
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	for _, tc := range []struct {
		query string
		want  []int64
	}{
		{"", []int64{1, 2, 3}},
		{"outcome=active-phishing", []int64{2}},
		{"domain=cdn.example", []int64{2}},
		{"domain=dead.example errkind=network", []int64{1}},
		{"cloak=turnstile", []int64{2}},
		{"adjudicable=false", []int64{3}},
		{"id=3", []int64{3}},
		{"limit=2", []int64{1, 2}},
		{"outcome=active-phishing domain=dead.example", nil},
		{"domain=nowhere.example", nil},
	} {
		q, err := ParseQuery(tc.query)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.query, err)
		}
		verdicts, err := st.Query(q)
		if err != nil {
			t.Fatalf("query %q: %v", tc.query, err)
		}
		var got []int64
		for _, v := range verdicts {
			got = append(got, v.ID)
		}
		if len(got) != len(tc.want) {
			t.Errorf("query %q: got ids %v, want %v", tc.query, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("query %q: got ids %v, want %v", tc.query, got, tc.want)
				break
			}
		}
	}
}

func TestParseQueryErrors(t *testing.T) {
	for _, bad := range []string{
		"outcome",   // no =
		"=value",    // empty key
		"outcome=",  // empty value
		"color=red", // unknown key
		"id=zero",   // non-numeric id
		"id=-4",     // non-positive id
		"limit=0",   // non-positive limit
		"outcome=x color=red",
	} {
		if _, err := ParseQuery(bad); err == nil {
			t.Errorf("ParseQuery(%q) accepted invalid input", bad)
		}
	}
	if _, err := ParseQuery("color=red"); err == nil || !strings.Contains(err.Error(), "valid keys") {
		t.Errorf("unknown-key error should list valid keys, got %v", err)
	}
}

func TestFinalizeRejectsDuplicateIDs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dup.tstore")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Add(Verdict{ID: 7, Outcome: "error-page"})
	w.Add(Verdict{ID: 7, Outcome: "active-phishing"})
	if err := w.Finalize(nil, nil); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("Finalize with duplicate IDs: err = %v", err)
	}
}

// TestFinalizeRejectsOutOfOrderIDs pins the Writer's order contract: rows
// arrive in ascending trace-ID order, and Finalize fails rather than write
// a segment whose records would follow the order rows were added in.
func TestFinalizeRejectsOutOfOrderIDs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "order.tstore")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Add(Verdict{ID: 2, Outcome: "error-page"})
	w.Add(Verdict{ID: 1, Outcome: "active-phishing"})
	if err := w.Finalize(nil, nil); err == nil || !strings.Contains(err.Error(), "trace id 1 added after 2") {
		t.Fatalf("Finalize with descending IDs: err = %v", err)
	}
	if _, err := Open(path); err == nil {
		t.Error("Open accepted the segment of a failed Finalize")
	}
}

func TestOpenRejectsUnfinalizedSegment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "raw.tstore")
	ev, err := evstore.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Append(evstore.KindVerdict, []byte(`{"id":1,"outcome":"error-page"}`)); err != nil {
		t.Fatal(err)
	}
	if err := ev.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil || !strings.Contains(err.Error(), "no index record") {
		t.Fatalf("Open on unfinalized segment: err = %v", err)
	}
}

func TestStoreNotFound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.tstore")
	writeSegment(t, path, Verdict{ID: 1, Outcome: "error-page"})
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Verdict(99); !errors.Is(err, ErrNotFound) {
		t.Errorf("Verdict(99): err = %v, want ErrNotFound", err)
	}
	if _, err := st.Readjudicate(99); !errors.Is(err, ErrNotFound) {
		t.Errorf("Readjudicate(99): err = %v, want ErrNotFound", err)
	}
}

// TestCompactOverlay pins the multi-segment merge rule: per trace ID the
// last source wins, survivors come out in ascending ID order, and metrics
// snapshots fold through the registry.
func TestCompactOverlay(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.tstore")
	overlay := filepath.Join(dir, "overlay.tstore")
	out := filepath.Join(dir, "out.tstore")

	baseW, err := Create(base)
	if err != nil {
		t.Fatal(err)
	}
	baseW.Add(Verdict{ID: 1, Outcome: "error-page", ErrorKind: "network"})
	baseW.Add(Verdict{ID: 2, Outcome: "no-web-resource"})
	if err := baseW.Finalize(nil, []obs.Point{{Name: "runs_total", Type: "counter", Value: 1}}); err != nil {
		t.Fatal(err)
	}
	overlayW, err := Create(overlay)
	if err != nil {
		t.Fatal(err)
	}
	overlayW.Add(Verdict{ID: 2, Outcome: "active-phishing", Domain: "login.example"})
	overlayW.Add(Verdict{ID: 3, Outcome: "cloaked-benign"})
	if err := overlayW.Finalize(nil, []obs.Point{{Name: "runs_total", Type: "counter", Value: 1}}); err != nil {
		t.Fatal(err)
	}

	if err := Compact(out, base, overlay); err != nil {
		t.Fatal(err)
	}
	st, err := Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ids := st.IDs()
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Fatalf("compacted ids = %v, want [1 2 3]", ids)
	}
	v2, err := st.Verdict(2)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Outcome != "active-phishing" || v2.Domain != "login.example" {
		t.Errorf("id 2 after overlay compact = %+v, want the overlay row", v2)
	}
	points, err := st.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 || points[0].Name != "runs_total" || points[0].Value != 2 {
		t.Errorf("folded metrics = %+v, want runs_total=2", points)
	}
}

func TestVerdictOfFailedAnalysis(t *testing.T) {
	v := VerdictOf(5, nil, errors.New("boom"))
	if v.Outcome != OutcomeFailed || v.Err != "boom" || v.Adjudicable {
		t.Errorf("failed verdict = %+v", v)
	}
	r := ReadjudicateVerdict(v)
	if !r.Match || r.Outcome != OutcomeFailed {
		t.Errorf("failed re-adjudication = %+v, want carried-through match", r)
	}
}

// TestFederatedOpen pins the multi-segment Open: the federated view
// applies the same later-segment-wins overlay Compact does, so queries,
// verdict reads, stats, and metrics over Open(base, overlay) agree with a
// store compacted from the same segments.
func TestFederatedOpen(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.tstore")
	overlay := filepath.Join(dir, "overlay.tstore")

	baseW, err := Create(base)
	if err != nil {
		t.Fatal(err)
	}
	baseW.Add(Verdict{ID: 1, Outcome: "error-page", ErrorKind: "network", Domain: "dead.example"})
	baseW.Add(Verdict{ID: 2, Outcome: "no-web-resource"})
	if err := baseW.Finalize(nil, []obs.Point{{Name: "runs_total", Type: "counter", Value: 1}}); err != nil {
		t.Fatal(err)
	}
	overlayW, err := Create(overlay)
	if err != nil {
		t.Fatal(err)
	}
	overlayW.Add(Verdict{ID: 2, Outcome: "active-phishing", Domain: "login.example", Adjudicable: true})
	overlayW.Add(Verdict{ID: 3, Outcome: "cloaked-benign"})
	if err := overlayW.Finalize(nil, []obs.Point{{Name: "runs_total", Type: "counter", Value: 1}}); err != nil {
		t.Fatal(err)
	}

	st, err := Open(base, overlay)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	ids := st.IDs()
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Fatalf("federated ids = %v, want [1 2 3]", ids)
	}
	v2, err := st.Verdict(2)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Outcome != "active-phishing" || v2.Domain != "login.example" {
		t.Errorf("id 2 = %+v, want the overlay row", v2)
	}

	// The base segment's postings for the shadowed row must not leak: id 2
	// is no longer no-web-resource.
	q, err := ParseQuery("outcome=no-web-resource")
	if err != nil {
		t.Fatal(err)
	}
	if verdicts, err := st.Query(q); err != nil || len(verdicts) != 0 {
		t.Errorf("shadowed posting leaked: %v (err %v)", verdicts, err)
	}
	q, err = ParseQuery("outcome=active-phishing")
	if err != nil {
		t.Fatal(err)
	}
	verdicts, err := st.Query(q)
	if err != nil || len(verdicts) != 1 || verdicts[0].ID != 2 {
		t.Errorf("overlay query = %v (err %v), want id 2", verdicts, err)
	}

	stats := st.Stats()
	if stats.Traces != 3 || stats.Segments != 2 || stats.Adjudicable != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.Outcomes["no-web-resource"] != 0 || stats.Outcomes["active-phishing"] != 1 {
		t.Errorf("stats outcomes = %+v", stats.Outcomes)
	}

	points, err := st.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 || points[0].Name != "runs_total" || points[0].Value != 2 {
		t.Errorf("folded metrics = %+v, want runs_total=2", points)
	}

	// Federated reads agree with the on-disk compaction of the same list.
	out := filepath.Join(dir, "out.tstore")
	if err := Compact(out, base, overlay); err != nil {
		t.Fatal(err)
	}
	cst, err := Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer cst.Close()
	for _, id := range ids {
		fv, err := st.Verdict(id)
		if err != nil {
			t.Fatal(err)
		}
		cv, err := cst.Verdict(id)
		if err != nil {
			t.Fatal(err)
		}
		if fv.Outcome != cv.Outcome || fv.ErrorKind != cv.ErrorKind || fv.Domain != cv.Domain {
			t.Errorf("id %d: federated %+v != compacted %+v", id, fv, cv)
		}
	}
}
