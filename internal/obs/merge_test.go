package obs

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// promDump renders a registry for byte comparison.
func promDump(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// foldAll folds each registry's snapshot into a fresh registry, in order.
func foldAll(regs ...*Registry) *Registry {
	out := NewRegistry()
	for _, r := range regs {
		out.MergePoints(r.Snapshot())
	}
	return out
}

// TestRegistryMergeMatchesDirect pins the MergePoints contract: folding the
// snapshots of several registries together must export the same bytes as
// writing every operation into one shared registry, in any order and any
// grouping.
func TestRegistryMergeMatchesDirect(t *testing.T) {
	ops := func(r *Registry, part int) {
		r.Inc("requests_total", "status", "2xx")
		r.Add("requests_total", 2, "status", "4xx")
		r.Add("bytes_total", float64(100*(part+1)))
		r.Observe("latency_ns", 2e6)
		r.Observe("latency_ns", 4e9)
		r.Set("build_info", 1, "version", "7")
	}

	direct := NewRegistry()
	parts := make([]*Registry, 3)
	for i := range parts {
		parts[i] = NewRegistry()
		ops(direct, i)
		ops(parts[i], i)
	}

	merged := foldAll(parts...)
	if got, want := promDump(t, merged), promDump(t, direct); got != want {
		t.Errorf("folded snapshots diverge from direct writes:\n--- folded ---\n%s--- direct ---\n%s", got, want)
	}

	// Commutativity: folding in reverse order exports the same bytes (the
	// gauge is set identically by every part, per Set's rule).
	if got, want := promDump(t, foldAll(parts[2], parts[1], parts[0])), promDump(t, merged); got != want {
		t.Error("fold order changed the exported snapshot")
	}

	// Associativity: pre-folding a pair then folding the rest matches too.
	pair := foldAll(parts[0], parts[1])
	if got, want := promDump(t, foldAll(pair, parts[2])), promDump(t, merged); got != want {
		t.Error("pre-folded pair changed the exported snapshot")
	}
}

// droppedCount reads the merge-drop counter for one reason label.
func droppedCount(r *Registry, reason string) float64 {
	for _, p := range r.Snapshot() {
		if p.Name == MergeDroppedMetric && len(p.Labels) == 1 && p.Labels[0].Value == reason {
			return p.Value
		}
	}
	return 0
}

func TestRegistryMergeConflictsAndNil(t *testing.T) {
	r := NewRegistry()
	r.Inc("m")
	r.Observe("h", 1.5) // default buckets
	// A snapshot written by a build with other histogram buckets: the
	// route by which a restored tracestore segment can disagree.
	foreign := []Point{
		{Name: "m", Type: typeGauge, Value: 5}, // type conflict: counter vs gauge
		{Name: "h", Type: typeHistogram, Sum: 1.5, Counts: []uint64{0, 1, 0}, Bounds: []float64{1, 2}},
	}
	r.MergePoints(foreign)

	// The conflicting series are skipped, not merged: the counter keeps
	// its value and the histogram its original bucket layout and counts.
	for _, p := range r.Snapshot() {
		switch {
		case p.Name == "m" && (p.Type != typeCounter || p.Value != 1):
			t.Errorf("type-conflicted series mutated: %+v", p)
		case p.Name == "h" && (len(p.Counts) != len(DefaultBuckets)+1 || p.Sum != 1.5):
			t.Errorf("bucket-conflicted series mutated: %+v", p)
		}
	}
	// ...and each skip is itself observed: one type-conflict drop, one
	// bucket-conflict drop.
	if got := droppedCount(r, "type-conflict"); got != 1 {
		t.Errorf("type-conflict drops = %v, want 1", got)
	}
	if got := droppedCount(r, "bucket-conflict"); got != 1 {
		t.Errorf("bucket-conflict drops = %v, want 1", got)
	}

	// A registry that never observed the histogram adopts the foreign
	// bounds as they are.
	fresh := NewRegistry()
	fresh.MergePoints(foreign[1:])
	if snap := fresh.Snapshot(); len(snap) != 1 || len(snap[0].Bounds) != 2 || snap[0].Counts[1] != 1 {
		t.Errorf("fresh fold of a foreign histogram = %+v", snap)
	}

	after := promDump(t, r)
	r.MergePoints(nil)
	var nilReg *Registry
	r.MergePoints(nilReg.Snapshot())
	nilReg.MergePoints(r.Snapshot()) // must not panic
	if promDump(t, r) != after {
		t.Error("nil folds mutated the registry")
	}
}

// TestMergeDroppedCounterAccumulates pins that repeated conflicting folds
// keep counting — the counter is a plain commutative series, visible in
// snapshots and Prometheus dumps like any other metric.
func TestMergeDroppedCounterAccumulates(t *testing.T) {
	r := NewRegistry()
	r.Inc("m")
	other := NewRegistry()
	other.Set("m", 5)
	for i := 0; i < 3; i++ {
		r.MergePoints(other.Snapshot())
	}
	if got := droppedCount(r, "type-conflict"); got != 3 {
		t.Errorf("drops after 3 conflicting folds = %v, want 3", got)
	}
	// A clean fold of the dropped counter itself adds like any counter.
	agg := foldAll(r, r)
	if got := droppedCount(agg, "type-conflict"); got != 6 {
		t.Errorf("aggregated drops = %v, want 6", got)
	}
	dump := promDump(t, agg)
	if !strings.Contains(dump, MergeDroppedMetric+`{reason="type-conflict"} 6`) {
		t.Errorf("dropped counter missing from Prometheus dump:\n%s", dump)
	}
}

// TestMergePointsSameCountOtherBounds pins that a restored histogram with
// as many buckets as the series but other bounds is a bucket conflict: its
// counts describe other ranges, so adding them bucket by bucket would
// file them under the wrong bounds.
func TestMergePointsSameCountOtherBounds(t *testing.T) {
	r := NewRegistry()
	r.Observe("h", 2e6)
	before := promDump(t, r)
	bounds := make([]float64, len(DefaultBuckets))
	counts := make([]uint64, len(DefaultBuckets)+1)
	for i := range bounds {
		bounds[i] = float64(i + 1) // 1 ns .. 13 ns
		counts[i] = 1
	}
	counts[len(bounds)] = 1 // 14 observations in all
	r.MergePoints([]Point{{Name: "h", Type: typeHistogram, Sum: 92, Counts: counts, Bounds: bounds}})
	if got := droppedCount(r, "bucket-conflict"); got != 1 {
		t.Errorf("bucket-conflict drops = %v, want 1", got)
	}
	for _, p := range r.Snapshot() {
		if p.Name == "h" && (p.Sum != 2e6 || !slices.Equal(p.Bounds, DefaultBuckets)) {
			t.Errorf("conflicting point was folded in: %+v", p)
		}
	}
	if after := promDump(t, r); !strings.Contains(after, "h_count 1\n") {
		t.Errorf("histogram count changed:\nbefore\n%safter\n%s", before, after)
	}
}
