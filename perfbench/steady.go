package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness report reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runResult is the last line a run prints.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runSteady runs each workload o.steady times in each of two sets, every
// run on its own seed, and prints per metric the quartiles of all the runs
// and their spread (Q3-Q1 over the median) next to the metric's bound, and
// each set's median with how far the second moved from the first, counted
// in the metric's worse direction.
func runSteady(o options, w io.Writer) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	workloads := workloadNames
	if o.workload != "" {
		workloads = []string{o.workload}
	}
	allOK := true
	for _, wl := range workloads {
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for i := 0; i < o.steady; i++ {
				seed := int64(100 + set*o.steady + i)
				res, err := runOnce(self, o, wl, seed)
				if err != nil {
					return err
				}
				if !res.Correct || res.Failed != 0 {
					return fmt.Errorf("%s seed %d: correct=%v failed=%d", wl, seed, res.Correct, res.Failed)
				}
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
		}
		fmt.Fprintf(w, "\n%s: two sets of %d runs, seeds %d..%d\n", wl, o.steady, 100, 100+2*o.steady-1)
		fmt.Fprintf(w, "  %-20s %12s %12s %12s %7s %7s %12s %12s %7s  %s\n",
			"metric", "q1", "median", "q3", "spread", "bound", "A median", "B median", "moved", "verdict")
		for _, d := range spec.EndToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			q1, q2, q3 := quartiles(append(append([]float64(nil), a...), b...))
			sp := spread(q1, q2, q3)
			ma, mb := median(a), median(b)
			moved := (mb - ma) / ma
			if d.Better == "higher" {
				moved = -moved
			}
			verdict := "ok"
			switch {
			case d.Name != "setup_s" && sp > d.Bound:
				verdict = "TOO NOISY"
				allOK = false
			case moved > d.Bound:
				verdict = "SETS DISAGREE"
				allOK = false
			case d.Name != "setup_s" && sp > d.Bound/3:
				verdict = "ok, spread above a third of the bound"
			}
			fmt.Fprintf(w, "  %-20s %12.4f %12.4f %12.4f %7.4f %7.4f %12.4f %12.4f %7.4f  %s\n",
				d.Name, q1, q2, q3, sp, d.Bound, ma, mb, moved, verdict)
		}
	}
	if !allOK {
		return fmt.Errorf("some metric is outside its bound")
	}
	return nil
}

func spread(q1, q2, q3 float64) float64 {
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// runOnce runs the benchmark command for one workload and seed and parses
// the result line.
func runOnce(self string, o options, workload string, seed int64) (runResult, error) {
	var res runResult
	var stdout bytes.Buffer
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
		"-bin", o.bin, "-work", o.work, "-trace", "0")
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return res, nil
}
