package crawlerbox

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"crawlerbox/internal/browser"
	"crawlerbox/internal/evstore"
	"crawlerbox/internal/imaging"
)

func sampleVisits() []VisitRecord {
	shot := imaging.MustNew(8, 6, imaging.RGB{R: 10, G: 20, B: 30})
	shot.Set(3, 2, imaging.RGB{R: 200, G: 100, B: 50})
	return []VisitRecord{
		{
			URL: "https://phish.example/login",
			Result: &browser.Result{
				RequestedURL: "https://phish.example/login",
				FinalURL:     "https://landing.example/portal",
				Status:       200,
				HTML:         "<html><title>Sign in</title></html>",
				Screenshot:   shot,
				Console:      []string{"warn: mixed content"},
				Scripts:      []string{"fp.js"},
				ScriptErrors: []string{"ReferenceError: chrome"},
				Navigations:  []string{"https://phish.example/login", "https://landing.example/portal"},
				Requests: []browser.RequestRecord{
					{URL: "https://landing.example/portal", Method: "GET", Initiator: "document", Status: 200},
					{URL: "https://cdn.example/fp.js", Method: "GET", Initiator: "script", Referer: "https://landing.example/portal", Status: 404, Err: "not found"},
				},
				DebuggerHits: 2,
				Degraded:     true,
			},
		},
		{URL: "https://dead.example/", Err: errors.New("webnet: NXDOMAIN")},
		{URL: "https://empty.example/", Result: &browser.Result{Status: 204}},
	}
}

func TestEvidenceRoundTrip(t *testing.T) {
	visits := sampleVisits()
	got, err := DecodeEvidence(EncodeEvidence(visits))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(visits) {
		t.Fatalf("decoded %d visits, want %d", len(got), len(visits))
	}
	for i, ev := range got {
		v := visits[i]
		if ev.URL != v.URL {
			t.Errorf("visit %d: URL %q want %q", i, ev.URL, v.URL)
		}
		wantErr := ""
		if v.Err != nil {
			wantErr = v.Err.Error()
		}
		if ev.Err != wantErr {
			t.Errorf("visit %d: Err %q want %q", i, ev.Err, wantErr)
		}
		if ev.Missing != (v.Result == nil) {
			t.Errorf("visit %d: Missing=%v", i, ev.Missing)
		}
		if v.Result == nil {
			continue
		}
		r := v.Result
		if ev.RequestedURL != r.RequestedURL || ev.FinalURL != r.FinalURL ||
			ev.Status != r.Status || ev.HTML != r.HTML ||
			ev.DebuggerHits != r.DebuggerHits || ev.Degraded != r.Degraded {
			t.Errorf("visit %d: scalar fields differ: %+v", i, ev)
		}
		if !reflect.DeepEqual(ev.Console, r.Console) || !reflect.DeepEqual(ev.Scripts, r.Scripts) ||
			!reflect.DeepEqual(ev.ScriptErrors, r.ScriptErrors) || !reflect.DeepEqual(ev.Navigations, r.Navigations) {
			t.Errorf("visit %d: string slices differ", i)
		}
		if len(ev.Requests) != len(r.Requests) {
			t.Fatalf("visit %d: %d requests, want %d", i, len(ev.Requests), len(r.Requests))
		}
		for j := range r.Requests {
			if ev.Requests[j] != r.Requests[j] {
				t.Errorf("visit %d request %d: %+v want %+v", i, j, ev.Requests[j], r.Requests[j])
			}
		}
		if r.RenderScreenshot() == nil {
			if ev.Screenshot != nil {
				t.Errorf("visit %d: unexpected screenshot bytes", i)
			}
			continue
		}
		img, err := imaging.DecodeCBI(ev.Screenshot, nil)
		if err != nil {
			t.Fatalf("visit %d: screenshot decode: %v", i, err)
		}
		if !img.Equal(r.RenderScreenshot()) {
			t.Errorf("visit %d: screenshot pixels differ", i)
		}
	}
}

func TestDecodeEvidenceRejectsGarbage(t *testing.T) {
	for _, payload := range [][]byte{nil, {0x7F}, {evidenceVersion}, {evidenceVersion, 0x05, 0x01}} {
		if _, err := DecodeEvidence(payload); err == nil {
			t.Errorf("DecodeEvidence(%v) accepted garbage", payload)
		}
	}
	// A valid empty evidence record decodes to zero visits.
	got, err := DecodeEvidence(EncodeEvidence(nil))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty evidence: %v, %d visits", err, len(got))
	}
}

func TestSpillEvidence(t *testing.T) {
	store, err := evstore.Create(filepath.Join(t.TempDir(), "ev.bin"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	ma := &MessageAnalysis{Visits: sampleVisits(), Outcome: OutcomeActivePhish}
	wantPayload := EncodeEvidence(ma.Visits)
	if err := SpillEvidence(store, &EvidenceEncoder{}, ma); err != nil {
		t.Fatal(err)
	}
	if ma.Visits != nil {
		t.Fatal("spill left Visits resident")
	}
	if !ma.Evidence.Valid() {
		t.Fatalf("spill produced invalid handle %+v", ma.Evidence)
	}
	kind, payload, err := store.At(ma.Evidence)
	if err != nil {
		t.Fatal(err)
	}
	if kind != evstore.KindAnalysis || !bytes.Equal(payload, wantPayload) {
		t.Fatalf("stored record kind=%d len=%d, want analysis/%d", kind, len(payload), len(wantPayload))
	}
	loaded, err := LoadEvidence(store, ma.Evidence)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 3 || loaded[0].FinalURL != "https://landing.example/portal" {
		t.Fatalf("loaded evidence mismatch: %+v", loaded)
	}

	// Spilling an analysis without visits is a no-op.
	empty := &MessageAnalysis{}
	if err := SpillEvidence(store, &EvidenceEncoder{}, empty); err != nil {
		t.Fatal(err)
	}
	if empty.Evidence.Valid() {
		t.Fatal("no-visit spill produced a handle")
	}
	// So is spilling to a nil store.
	withVisits := &MessageAnalysis{Visits: sampleVisits()}
	if err := SpillEvidence(nil, &EvidenceEncoder{}, withVisits); err != nil {
		t.Fatal(err)
	}
	if withVisits.Visits == nil {
		t.Fatal("nil-store spill dropped Visits")
	}
}
