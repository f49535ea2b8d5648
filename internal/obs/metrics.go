package obs

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"sync"
)

// Series types.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// DefaultBuckets are the bounds of every histogram the registry observes:
// virtual-latency nanoseconds from 1ms to 30s, matching the simulation's
// 50ms round trips and 30s event-loop windows.
var DefaultBuckets = []float64{
	1e6, 5e6, 1e7, 2.5e7, 5e7, 1e8, 2.5e8, 5e8,
	1e9, 2.5e9, 5e9, 1e10, 3e10,
}

// series is one metric stream: a (name, sorted labels) pair with either a
// scalar value (counter, gauge) or histogram state.
type series struct {
	name   string
	labels []Attr
	typ    string
	value  float64   // counter / gauge
	sum    float64   // histogram
	counts []uint64  // histogram, len(bounds)+1 with +Inf last
	bounds []float64 // histogram
}

// Registry is a race-safe metrics store with a deterministic snapshot: all
// write operations are commutative (counter adds, histogram observes), so
// the exported state is identical no matter how concurrent workers
// interleave — the property the corpus runner's workers-1-vs-8 golden test
// pins. Gauges are the exception (last write wins); restrict them to values
// set once or set identically by every schedule.
//
// All methods are no-ops on a nil *Registry, so instrumentation sites never
// branch on whether metrics are enabled.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: map[string]*series{}}
}

// Inc adds 1 to a counter. Labels are alternating key, value pairs.
func (r *Registry) Inc(name string, labels ...string) {
	r.Add(name, 1, labels...)
}

// Add adds delta to a counter.
//
//cblint:hotpath
func (r *Registry) Add(name string, delta float64, labels ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.get(name, typeCounter, labels)
	if s == nil {
		return
	}
	s.value += delta
}

// Set sets a gauge. Use only for values every schedule sets identically.
func (r *Registry) Set(name string, v float64, labels ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.get(name, typeGauge, labels)
	if s == nil {
		return
	}
	s.value = v
}

// Observe records v into a histogram with DefaultBuckets.
//
//cblint:hotpath
func (r *Registry) Observe(name string, v float64, labels ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.get(name, typeHistogram, labels)
	if s == nil {
		return
	}
	if s.counts == nil {
		s.bounds = DefaultBuckets
		s.counts = make([]uint64, len(DefaultBuckets)+1)
	}
	idx := len(s.bounds) // +Inf bucket
	for i, bound := range s.bounds {
		if v <= bound {
			idx = i
			break
		}
	}
	s.counts[idx]++
	s.sum += v
}

// get returns (creating if needed) the series for (name, labels), or nil on
// a type mismatch with an existing series. Callers hold r.mu.
func (r *Registry) get(name, typ string, labels []string) *series {
	attrs := labelAttrs(labels)
	key := seriesKey(name, attrs)
	//cblint:ignore guarded every caller (Add, Set, Observe) holds r.mu across the get call
	s := r.series[key]
	if s == nil {
		s = &series{name: name, labels: attrs, typ: typ}
		//cblint:ignore guarded every caller (Add, Set, Observe) holds r.mu across the get call
		r.series[key] = s
	}
	if s.typ != typ {
		return nil
	}
	return s
}

// labelAttrs pairs up alternating key, value strings, sorted by key.
func labelAttrs(labels []string) []Attr {
	attrs := make([]Attr, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		attrs = append(attrs, Attr{Key: labels[i], Value: labels[i+1]})
	}
	sort.SliceStable(attrs, func(i, j int) bool { return attrs[i].Key < attrs[j].Key })
	return attrs
}

// seriesKey is the registry key: name, then sorted labels, NUL-separated so
// ordering groups a metric's series together.
func seriesKey(name string, attrs []Attr) string {
	key := name
	for _, a := range attrs {
		key += "\x00" + a.Key + "\x01" + a.Value
	}
	return key
}

// MergeDroppedMetric counts series a MergePoints fold had to skip
// because their type or histogram bucket layout conflicted with an existing
// series. The "reason" label distinguishes type-conflict from
// bucket-conflict. A clean deployment never populates it, so its presence
// in an export is itself the alert.
const MergeDroppedMetric = "obs_merge_dropped_total"

// MergePoints folds a point snapshot into r: counter values add,
// histograms add their sums and per-bucket counts (r adopts the source's
// bounds when it has never observed the metric), and gauges overwrite —
// the same last-write-wins contract Set has. Counter and histogram folds
// are commutative and associative, so snapshots folded in any order export
// identical state; gauge order only matters when schedules set different
// values, which the Set contract already forbids. It is the restore path
// for snapshots that crossed a serialization boundary (the tracestore's
// KindMetrics records), so a point may come from a build with other
// buckets: a series whose type conflicts with an existing one, or whose
// histogram bounds differ from its bounds (as many buckets or not), is
// skipped, and the skip is itself counted in MergeDroppedMetric, so
// the conflict shows up in the exports instead of silently losing data.
// Folding into a nil registry, or a nil snapshot, is a no-op.
func (r *Registry) MergePoints(points []Point) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range points {
		key := seriesKey(p.Name, p.Labels)
		//cblint:ignore guarded MergePoints holds r.mu across the whole fold
		s := r.series[key]
		if s == nil {
			s = &series{name: p.Name, labels: p.Labels, typ: p.Type}
			//cblint:ignore guarded MergePoints holds r.mu across the whole fold
			r.series[key] = s
		}
		if s.typ != p.Type {
			r.countDroppedLocked("type-conflict")
			continue
		}
		switch p.Type {
		case typeCounter:
			s.value += p.Value
		case typeGauge:
			s.value = p.Value
		case typeHistogram:
			if len(p.Counts) == 0 {
				continue
			}
			if s.counts == nil {
				s.bounds = p.Bounds
				s.counts = make([]uint64, len(p.Counts))
			}
			if len(s.counts) != len(p.Counts) || !slices.Equal(s.bounds, p.Bounds) {
				r.countDroppedLocked("bucket-conflict")
				continue
			}
			for i, c := range p.Counts {
				s.counts[i] += c
			}
			s.sum += p.Sum
		}
	}
}

// countDroppedLocked bumps the merge-drop self-observability counter.
// Callers hold r.mu, so it writes the series directly instead of going
// through Add (which would deadlock on the non-reentrant mutex).
func (r *Registry) countDroppedLocked(reason string) {
	attrs := []Attr{{Key: "reason", Value: reason}}
	key := seriesKey(MergeDroppedMetric, attrs)
	//cblint:ignore guarded every caller (MergePoints) holds r.mu
	s := r.series[key]
	if s == nil {
		s = &series{name: MergeDroppedMetric, labels: attrs, typ: typeCounter}
		//cblint:ignore guarded every caller (MergePoints) holds r.mu
		r.series[key] = s
	}
	if s.typ == typeCounter {
		s.value++
	}
}

// Point is one series in a snapshot.
type Point struct {
	// Name is the metric name.
	Name string
	// Labels are the series labels, sorted by key.
	Labels []Attr
	// Type is "counter", "gauge", or "histogram".
	Type string
	// Value is the scalar for counters and gauges.
	Value float64
	// Sum / Counts / Bounds describe histograms (Counts has one extra
	// trailing +Inf bucket).
	Sum    float64
	Counts []uint64
	Bounds []float64
}

// Snapshot returns every series sorted by (name, labels) — the
// deterministic, race-safe read side of the registry.
func (r *Registry) Snapshot() []Point {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]string, 0, len(r.series))
	for k := range r.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Point, 0, len(keys))
	for _, k := range keys {
		s := r.series[k]
		p := Point{
			Name:   s.name,
			Labels: append([]Attr(nil), s.labels...),
			Type:   s.typ,
			Value:  s.value,
			Sum:    s.sum,
			Bounds: s.bounds,
		}
		p.Counts = append([]uint64(nil), s.counts...)
		out = append(out, p)
	}
	return out
}

// WriteProm writes the registry in Prometheus text exposition format,
// sorted by (name, labels) so the dump is byte-stable.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	lastName := ""
	for _, p := range r.Snapshot() {
		if p.Name != lastName {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", p.Name, p.Type); err != nil {
				return err
			}
			lastName = p.Name
		}
		var err error
		switch p.Type {
		case typeHistogram:
			err = writePromHistogram(w, &p)
		default:
			_, err = fmt.Fprintf(w, "%s%s %s\n", p.Name, promLabels(p.Labels, "", ""), formatValue(p.Value))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writePromHistogram emits the cumulative _bucket/_sum/_count triplet.
func writePromHistogram(w io.Writer, p *Point) error {
	var cum uint64
	for i, c := range p.Counts {
		cum += c
		le := "+Inf"
		if i < len(p.Bounds) {
			le = formatValue(p.Bounds[i])
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			p.Name, promLabels(p.Labels, "le", le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", p.Name, promLabels(p.Labels, "", ""), formatValue(p.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", p.Name, promLabels(p.Labels, "", ""), cum)
	return err
}

// promLabels renders {k="v",...} with an optional extra trailing label
// (used for histogram le). Empty label sets render as "".
func promLabels(attrs []Attr, extraKey, extraVal string) string {
	if len(attrs) == 0 && extraKey == "" {
		return ""
	}
	out := "{"
	for i, a := range attrs {
		if i > 0 {
			out += ","
		}
		out += a.Key + `="` + a.Value + `"`
	}
	if extraKey != "" {
		if len(attrs) > 0 {
			out += ","
		}
		out += extraKey + `="` + extraVal + `"`
	}
	return out + "}"
}

// formatValue renders a float the shortest way that round-trips.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
