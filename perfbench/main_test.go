package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"crawlerbox/internal/dataset"
	"crawlerbox/internal/ingest"
	"crawlerbox/internal/report"
)

// tinyScale keeps every test workload to about a hundred messages.
const tinyScale = 0.02

// buildBinaries builds perfbench and crawlerboxd into dir.
func buildBinaries(t *testing.T, dir string) {
	t.Helper()
	for _, b := range []struct{ out, pkg string }{
		{"perfbench", "."},
		{"crawlerboxd", "crawlerbox/cmd/crawlerboxd"},
	} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, b.out), b.pkg)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", b.pkg, err, out)
		}
	}
}

// TestWorkloadsPrintEveryMetric runs each workload, untraced and traced,
// at a tiny scale and checks the result line: correct, nothing failed, and
// every metric of BENCHMARK.json present with its unit.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark binaries")
	}
	dir := t.TempDir()
	buildBinaries(t, dir)
	spec := readBenchmarkJSON(t)
	for _, wl := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				cmd := exec.Command(filepath.Join(dir, "perfbench"), "-workload", wl, "-seed", "7",
					"-seconds", "0.5", "-scale", "0.02", "-trace", trace,
					"-bin", dir, "-work", filepath.Join(dir, "work"))
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("run: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res runResult
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stdout.String())
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s missing", d.Name)
						continue
					}
					if m.Unit != d.Unit {
						t.Errorf("metric %s: unit %q, want %q", d.Name, m.Unit, d.Unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v, want > 0", d.Name, m.Value)
					}
				}
			})
		}
	}
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type fullSpec struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) fullSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s fullSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json to the metric tables
// the command prints from.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	s := readBenchmarkJSON(t)
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd)
	check("per_layer", s.PerLayer, perLayer)
	if len(s.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(s.Workloads), len(workloadNames))
	}
	for i, w := range s.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %s, want %s", i, w.Name, workloadNames[i])
		}
	}
}

// TestCorruptedVerdictTripsChecks feeds each correctness check a result
// with one verdict changed and expects it to refuse.
func TestCorruptedVerdictTripsChecks(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	specs, err := corpusSpecs(7, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "replay.log")
	if err := writeLog(logPath, specs, nil); err != nil {
		t.Fatal(err)
	}
	ref, _, err := referenceReplay(ctx, logPath, 7, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	in, err := readLogInfo(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReplay(ref, in); err != nil {
		t.Fatalf("clean replay refused: %v", err)
	}

	// corrupt returns a copy of the emissions with the verdict of the
	// first emission matching pick changed.
	corrupt := func(em []ingest.Emitted, pick func(ingest.Emitted) bool) []ingest.Emitted {
		out := append([]ingest.Emitted(nil), em...)
		for i := range out {
			if pick(out[i]) {
				out[i].Verdict.Outcome = "benign-content-forged"
				return out
			}
		}
		t.Fatal("no emission to corrupt")
		return nil
	}
	isCached := func(e ingest.Emitted) bool { return e.Provenance == ingest.ProvenanceCached }

	t.Run("cached source", func(t *testing.T) {
		if err := checkCachedSources(ref.Emitted); err != nil {
			t.Fatalf("clean result refused: %v", err)
		}
		if checkCachedSources(corrupt(ref.Emitted, isCached)) == nil {
			t.Fatal("a cached verdict that differs from its source passed")
		}
	})

	t.Run("daemon", func(t *testing.T) {
		got := byID(ref.Emitted)
		if err := checkDaemon(got, ref); err != nil {
			t.Fatalf("identical verdicts refused: %v", err)
		}
		if checkDaemon(byID(corrupt(ref.Emitted, func(ingest.Emitted) bool { return true })), ref) == nil {
			t.Fatal("a daemon verdict that differs from replay passed")
		}
	})

	t.Run("rereport", func(t *testing.T) {
		copies, origin := rereports(7, specs, ref, int64(len(specs))+1)
		all := append(append([]ingest.Spec(nil), specs...), copies...)
		rrLog := filepath.Join(dir, "rereport.log")
		if err := writeLog(rrLog, all, byID(ref.Emitted)); err != nil {
			t.Fatal(err)
		}
		res, _, err := referenceReplay(ctx, rrLog, 7, tinyScale)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkRereports(res.Emitted, origin); err != nil {
			t.Fatalf("clean rereport refused: %v", err)
		}
		isCopy := func(e ingest.Emitted) bool { _, ok := origin[e.ID]; return ok }
		isOriginal := func(e ingest.Emitted) bool {
			for _, o := range origin {
				if o == e.ID {
					return true
				}
			}
			return false
		}
		if checkRereports(corrupt(res.Emitted, isCopy), origin) == nil {
			t.Fatal("a re-report whose verdict differs from its original passed")
		}
		if checkRereports(corrupt(res.Emitted, isOriginal), origin) == nil {
			t.Fatal("an original whose verdict differs from its re-reports passed")
		}
	})

	t.Run("batch", func(t *testing.T) {
		c, err := dataset.Stream(dataset.Config{Seed: 7, Scale: tinyScale})
		if err != nil {
			t.Fatal(err)
		}
		seg := filepath.Join(dir, "batch.tstore")
		if _, err := report.Analyze(ctx, c, report.WithTraceStorePath(seg)); err != nil {
			t.Fatal(err)
		}
		if err := checkBatch(seg, ref); err != nil {
			t.Fatalf("clean batch refused: %v", err)
		}
		forged := *ref
		forged.Emitted = corrupt(ref.Emitted, func(ingest.Emitted) bool { return true })
		if checkBatch(seg, &forged) == nil {
			t.Fatal("a batch verdict that differs from replay passed")
		}
	})
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestWithRecipient checks the re-report rewrite changes only the To:
// header.
func TestWithRecipient(t *testing.T) {
	raw := []byte("From: a@x\r\nTo: b@y\r\nSubject: s\r\n\r\nTo: body line\r\n")
	got := string(withRecipient(raw, "c@z"))
	want := "From: a@x\r\nTo: c@z\r\nSubject: s\r\n\r\nTo: body line\r\n"
	if got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}
