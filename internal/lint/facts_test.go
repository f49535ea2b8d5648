package lint

import (
	"path/filepath"
	"testing"
)

const taintlibPath = "crawlerbox/internal/lint/testdata/src/taintfix/taintlib"

func newTestFacts() *Facts {
	return NewFacts(NewLoader(filepath.Join("..", "..")))
}

// TestFactsSummaryForTaintlib pins the export data the fixture relies on:
// taintlib.At sinks its index parameter (param 1 — param 0 is the slice).
func TestFactsSummaryForTaintlib(t *testing.T) {
	pf := newTestFacts().For(taintlibPath)
	if pf == nil {
		t.Fatalf("no facts for %s", taintlibPath)
	}
	ff := pf.Funcs["At"]
	if ff == nil {
		t.Fatalf("no summary for At; have %v", pf.Funcs)
	}
	found := false
	for _, s := range ff.Sinks {
		if s.Param == 1 && s.Sink == "slice index" {
			found = true
		}
	}
	if !found {
		t.Errorf("At sinks = %+v, want param 1 reaching a slice index", ff.Sinks)
	}
}
