// Command crawlerbox runs the analysis pipeline over .eml files.
//
// Messages can reference hosts that only exist inside the bundled simulated
// world, so the tool first generates a corpus world (whose sites stay
// deployed) and then analyzes either the corpus's own messages or .eml
// files from a directory produced by mkdataset.
//
// Usage:
//
//	crawlerbox [-dir DIR] [-seed N] [-scale F] [-n N] [-workers N]
//	           [-trace FILE] [-metrics FILE] [-faults F] [-retry-max N]
//	           [-breaker-threshold N] [-evidence FILE] [-tracestore FILE]
//
// -trace writes one JSONL span record per line (virtual-time timestamps,
// byte-identical for any -workers value); -metrics writes a Prometheus text
// dump. Render either with cmd/obsreport. -faults injects seeded transient
// network faults recovered through virtual-clock retries and per-host
// circuit breakers (tune with -retry-max and -breaker-threshold).
// -evidence spills bulky evidence (visit records, logged traffic) to an
// append-only store instead of holding it in RAM; the printed summary
// lines are byte-identical either way. -tracestore writes the triage index
// (span trees, verdict evidence, metrics) as one canonical segment; query
// it, render checklists, and re-adjudicate verdicts with `obsreport
// -store FILE` or the `obsreport -serve` HTTP triage server.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"crawlerbox/internal/climain"
	"crawlerbox/internal/crawlerbox"
	"crawlerbox/internal/dataset"
	"crawlerbox/internal/report"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "crawlerbox:", err)
		os.Exit(1)
	}
}

func run() error {
	dir := flag.String("dir", "", "directory of .eml files (default: analyze the generated corpus directly)")
	seed := flag.Int64("seed", 42, "world/corpus seed (must match mkdataset for -dir)")
	scale := flag.Float64("scale", 0.1, "world/corpus scale (must match mkdataset for -dir)")
	limit := flag.Int("n", 10, "maximum messages to analyze (0 = all)")
	shared := climain.Register(flag.CommandLine)
	flag.Parse()

	// Stream, not Generate: the world (sites, DNS, brand pages) deploys
	// either way, but message bytes render lazily one at a time, so the
	// corpus never sits fully materialized in RAM.
	corpus, err := dataset.Stream(dataset.Config{Seed: *seed, Scale: *scale})
	if err != nil {
		return err
	}
	// Every message is analyzed at one fixed virtual time, whatever its
	// delivery date.
	at := time.Date(2024, 11, 1, 0, 0, 0, 0, time.UTC)

	var names []string
	var produce func(send func(crawlerbox.IndexedSpec) bool)
	if *dir != "" {
		files, raws, err := readEML(*dir, *limit)
		if err != nil {
			return err
		}
		names = files
		produce = func(send func(crawlerbox.IndexedSpec) bool) {
			for i, raw := range raws {
				if !send(crawlerbox.IndexedSpec{Index: i, Spec: crawlerbox.MessageSpec{Raw: raw, ID: int64(i + 1), At: at}}) {
					return
				}
			}
		}
	} else {
		// Corpus mode streams: specs render one message at a time through
		// Corpus.Each; only the one-line summaries are buffered (to restore
		// message order), never the corpus.
		count := corpus.Len()
		if *limit > 0 && *limit < count {
			count = *limit
		}
		names = make([]string, count)
		for i := range names {
			names[i] = fmt.Sprintf("corpus-%05d", i)
		}
		produce = func(send func(crawlerbox.IndexedSpec) bool) {
			corpus.Each(func(i int, m *dataset.Message) bool {
				return i < count &&
					send(crawlerbox.IndexedSpec{Index: i, Spec: crawlerbox.MessageSpec{Raw: m.Raw, ID: int64(i + 1), At: at}})
			})
		}
	}

	observer := shared.Observer()
	lines := make([]string, len(names))
	sink := func(_ int, res crawlerbox.CorpusResult) {
		lines[res.Index] = resultLine(names[res.Index], res)
	}
	if err := report.AnalyzeSpecs(context.Background(), corpus, produce, sink, shared.ReportOptions(observer)...); err != nil {
		return err
	}
	for _, line := range lines {
		fmt.Println(line)
	}
	return shared.WriteExports(observer)
}

// readEML reads up to limit (0 = all) .eml files from dir in name order.
func readEML(dir string, limit int) ([]string, [][]byte, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var files []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".eml") {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	if limit > 0 && len(files) > limit {
		files = files[:limit]
	}
	raws := make([][]byte, len(files))
	for i, f := range files {
		if raws[i], err = os.ReadFile(filepath.Join(dir, f)); err != nil {
			return nil, nil, err
		}
	}
	return files, raws, nil
}

// resultLine formats one analysis result as the tool's summary line.
func resultLine(name string, res crawlerbox.CorpusResult) string {
	if res.Err != nil {
		return fmt.Sprintf("%-16s ERROR %v", name, res.Err)
	}
	ma := res.Analysis
	line := fmt.Sprintf("%-16s %-20s urls=%d", name, ma.Outcome, len(ma.Parse.URLs))
	if ma.Outcome == crawlerbox.OutcomeError {
		line += " err=" + ma.ErrorKind.String()
	}
	if ma.SpearPhish {
		line += " spear[" + ma.Brand + "]"
	}
	if ma.Landing != nil {
		line += " landing=" + ma.Landing.Host
	}
	if cloaks := cloakSummary(ma); cloaks != "" {
		line += " cloaks={" + cloaks + "}"
	}
	return line
}

func cloakSummary(ma *crawlerbox.MessageAnalysis) string {
	c := ma.Cloaks
	var parts []string
	for _, kv := range []struct {
		name string
		on   bool
	}{
		{"turnstile", c.Turnstile}, {"recaptcha", c.ReCaptcha},
		{"token", c.TokenizedURL}, {"victim", c.VictimCheck},
		{"otp", c.OTPPrompt}, {"math", c.MathChallenge},
		{"console", c.ConsoleHijack}, {"debugger", c.DebuggerTimer},
		{"hue", c.HueRotate}, {"fpgate", c.FingerprintGate},
		{"faultyqr", ma.Parse.FaultyQR}, {"noise", ma.Parse.NoisePadded},
	} {
		if kv.on {
			parts = append(parts, kv.name)
		}
	}
	return strings.Join(parts, ",")
}
