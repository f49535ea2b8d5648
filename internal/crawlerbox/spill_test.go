package crawlerbox_test

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"

	"crawlerbox/internal/crawlerbox"
	"crawlerbox/internal/evstore"
	"crawlerbox/internal/imaging"
)

// unrenderedVisits analyzes corpus messages and gathers the first three
// visit records whose screenshots nothing has rendered yet, as the visits
// of one message to spill.
func unrenderedVisits(t *testing.T) []crawlerbox.VisitRecord {
	t.Helper()
	pipe, specs := corpusPipeline(t, 200)
	var visits []crawlerbox.VisitRecord
	for _, spec := range specs {
		ma, err := pipe.Analyze(context.Background(), spec)
		if err != nil {
			continue
		}
		for _, v := range ma.Visits {
			if r := v.Result; r != nil && r.Screenshot == nil && r.PaintScreenshot(nil) != nil {
				visits = append(visits, v)
			}
		}
		if len(visits) >= 3 {
			return visits
		}
	}
	t.Fatalf("the corpus holds %d unrendered screenshots, want 3", len(visits))
	return nil
}

func createStore(t *testing.T) *evstore.Store {
	t.Helper()
	store, err := evstore.Create(filepath.Join(t.TempDir(), "ev.bin"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// The spill paints screenshots nothing has read into the encoder's canvas
// and stores none on the results: each stays unrendered, and a later
// RenderScreenshot renders the pixels that were spilled.
func TestSpillLeavesScreenshotsUnrendered(t *testing.T) {
	visits := unrenderedVisits(t)
	store := createStore(t)
	ma := &crawlerbox.MessageAnalysis{Visits: visits}
	if err := crawlerbox.SpillEvidence(store, &crawlerbox.EvidenceEncoder{}, ma); err != nil {
		t.Fatal(err)
	}
	evidence, err := crawlerbox.LoadEvidence(store, ma.Evidence)
	if err != nil {
		t.Fatal(err)
	}
	shots := 0
	for i, v := range visits {
		if v.Result == nil {
			continue
		}
		if v.Result.Screenshot != nil {
			t.Fatalf("visit %d: the spill stored a screenshot on the result", i)
		}
		want := v.Result.RenderScreenshot()
		if want == nil {
			if evidence[i].Screenshot != nil {
				t.Fatalf("visit %d: spilled a screenshot of a visit without a page", i)
			}
			continue
		}
		got, err := imaging.DecodeCBI(evidence[i].Screenshot, nil)
		if err != nil {
			t.Fatalf("visit %d: %v", i, err)
		}
		if !got.Equal(want) {
			t.Fatalf("visit %d: the spilled screenshot differs from the render", i)
		}
		shots++
	}
	if shots < 2 {
		t.Fatalf("%d screenshots compared, want at least 2", shots)
	}
}

// A worker's encoder keeps its record buffer and canvas: once warm, a
// spill that paints screenshots allocates less than one canvas per call,
// so a pixel copy on the spill path fails here.
func TestSpillAllocatesLessThanACanvas(t *testing.T) {
	visits := unrenderedVisits(t)
	store := createStore(t)
	canvasBytes := uint64(3 * len(visits[0].Result.PaintScreenshot(nil).Pix))
	enc := &crawlerbox.EvidenceEncoder{}
	ma := &crawlerbox.MessageAnalysis{}
	spill := func() {
		ma.Visits = visits
		if err := crawlerbox.SpillEvidence(store, enc, ma); err != nil {
			t.Fatal(err)
		}
	}
	spill() // warm-up: the buffer grows to the record's size and the canvas is made
	const calls = 20
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		spill()
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / calls; per >= canvasBytes {
		t.Fatalf("a warm spill allocates %d B per call, want less than one canvas (%d B)", per, canvasBytes)
	}
	for _, v := range visits {
		if v.Result != nil && v.Result.Screenshot != nil {
			t.Fatal("the spill stored a screenshot: the allocation figure measures no paint")
		}
	}
}
