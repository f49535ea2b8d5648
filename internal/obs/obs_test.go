package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// fakeClock is a hand-advanced Clock for unit tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Date(2024, 11, 1, 0, 0, 0, 0, time.UTC)} }

func TestSpanNesting(t *testing.T) {
	clock := newFakeClock()
	tr := NewTrace(7, clock)
	root := tr.Start(SpanMessage, "message 7")
	clock.advance(10 * time.Millisecond)
	child := tr.Start(SpanStage, "crawl")
	grand := tr.Start(SpanVisit, "visit https://a.example/x")
	clock.advance(50 * time.Millisecond)
	grand.SetAttr("status", "200")
	grand.End()
	child.End()
	clock.advance(time.Millisecond)
	root.SetStatus(StatusError)
	root.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	if root.ID != 1 || child.ID != 2 || grand.ID != 3 {
		t.Errorf("ids = %d %d %d, want 1 2 3", root.ID, child.ID, grand.ID)
	}
	if child.Parent != root.ID || grand.Parent != child.ID || root.Parent != 0 {
		t.Errorf("parent links wrong: root=%d child=%d grand=%d", root.Parent, child.Parent, grand.Parent)
	}
	if got := grand.Duration(); got != 50*time.Millisecond {
		t.Errorf("grandchild duration = %v, want 50ms", got)
	}
	if got := root.Duration(); got != 61*time.Millisecond {
		t.Errorf("root duration = %v, want 61ms", got)
	}
	if root.Status != StatusError || child.Status != StatusOK {
		t.Errorf("status: root=%q child=%q", root.Status, child.Status)
	}
	if grand.AttrValue("status") != "200" {
		t.Errorf("attr status = %q", grand.AttrValue("status"))
	}
}

func TestNilSafety(t *testing.T) {
	var o *Observer
	tr := o.NewTrace(1, newFakeClock())
	if tr != nil {
		t.Fatal("nil observer must hand out nil traces")
	}
	sp := tr.Start(SpanStage, "parse")
	sp.SetAttr("k", "v")
	sp.SetStatus(StatusError)
	sp.End()
	if tr.Spans() != nil {
		t.Error("nil trace must record nothing")
	}
	o.Collect(tr)
	var buf bytes.Buffer
	if err := o.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil observer WriteJSONL: err=%v len=%d", err, buf.Len())
	}

	var r *Registry
	r.Inc("c")
	r.Add("c", 2)
	r.Set("g", 1)
	r.Observe("h", 5)
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot must be nil")
	}
	if err := r.WriteProm(&buf); err != nil {
		t.Errorf("nil registry WriteProm: %v", err)
	}
}

func TestRegistryProm(t *testing.T) {
	r := NewRegistry()
	r.Inc("reqs", "status", "2xx")
	r.Inc("reqs", "status", "2xx")
	r.Inc("reqs", "status", "4xx")
	r.Set("up", 1)
	r.Observe("lat", 5e5)
	r.Observe("lat", 2e6)
	r.Observe("lat", 5e10)

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# TYPE lat histogram",
		"lat_bucket{le=\"1e+06\"} 1",
		"lat_bucket{le=\"5e+06\"} 2",
		"lat_bucket{le=\"1e+07\"} 2",
		"lat_bucket{le=\"2.5e+07\"} 2",
		"lat_bucket{le=\"5e+07\"} 2",
		"lat_bucket{le=\"1e+08\"} 2",
		"lat_bucket{le=\"2.5e+08\"} 2",
		"lat_bucket{le=\"5e+08\"} 2",
		"lat_bucket{le=\"1e+09\"} 2",
		"lat_bucket{le=\"2.5e+09\"} 2",
		"lat_bucket{le=\"5e+09\"} 2",
		"lat_bucket{le=\"1e+10\"} 2",
		"lat_bucket{le=\"3e+10\"} 2",
		"lat_bucket{le=\"+Inf\"} 3",
		"lat_sum 5.00025e+10",
		"lat_count 3",
		"# TYPE reqs counter",
		"reqs{status=\"2xx\"} 2",
		"reqs{status=\"4xx\"} 1",
		"# TYPE up gauge",
		"up 1",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("prom dump:\n%s\nwant:\n%s", got, want)
	}
}

func TestRegistryTypeMismatchNoOps(t *testing.T) {
	r := NewRegistry()
	r.Inc("m")
	r.Observe("m", 5) // same name, different type: dropped
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Type != typeCounter || snap[0].Value != 1 {
		t.Errorf("snapshot = %+v", snap)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	clock := newFakeClock()
	tr := NewTrace(3, clock)
	root := tr.Start(SpanMessage, "message 3")
	clock.advance(time.Second)
	v := tr.Start(SpanVisit, "visit https://b.example/")
	v.SetAttr("status", "200")
	v.SetAttr("bytes", "115")
	v.SetStatus(StatusError)
	v.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, []*Trace{tr}); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	traces, err := ReadJSONL(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 || traces[0].ID() != 3 || len(traces[0].Spans()) != 2 {
		t.Fatalf("round trip shape: %d traces", len(traces))
	}
	var buf2 bytes.Buffer
	if err := WriteJSONL(&buf2, traces); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != first {
		t.Errorf("round trip not byte-identical:\n%s\nvs\n%s", first, buf2.String())
	}
}

func TestSanitizeURL(t *testing.T) {
	for in, want := range map[string]string{
		"https://a.example/p?tok=cf-tok-000001": "https://a.example/p",
		"https://a.example/p#frag":              "https://a.example/p",
		"https://a.example/p":                   "https://a.example/p",
		"file:///mal.html":                      "file:///mal.html",
	} {
		if got := SanitizeURL(in); got != want {
			t.Errorf("SanitizeURL(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestObserverMergesInSpecOrder(t *testing.T) {
	o := New()
	clock := newFakeClock()
	for _, id := range []int64{5, 2, 9} {
		tr := o.NewTrace(id, clock)
		tr.Start(SpanMessage, "m").End()
		o.Collect(tr)
	}
	got := o.Traces()
	if len(got) != 3 || got[0].ID() != 2 || got[1].ID() != 5 || got[2].ID() != 9 {
		t.Errorf("trace order wrong: %v", []int64{got[0].ID(), got[1].ID(), got[2].ID()})
	}
	snap := o.Metrics.Snapshot()
	byName := map[string]float64{}
	for _, p := range snap {
		byName[p.Name] = p.Value
	}
	if byName["obs_traces_total"] != 3 || byName["obs_spans_total"] != 3 {
		t.Errorf("census counters = %+v", byName)
	}
}

func TestTriageRenders(t *testing.T) {
	clock := newFakeClock()
	tr := NewTrace(1, clock)
	root := tr.Start(SpanMessage, "message 1")
	st := tr.Start(SpanStage, "crawl")
	clock.advance(50 * time.Millisecond)
	st.End()
	fast := tr.Start(SpanStage, "parse")
	fast.End()
	root.SetAttr("outcome", "active-phish")
	root.End()

	traces := []*Trace{tr}
	stats := StageStats(traces)
	if len(stats) != 2 || stats[0].Stage != "crawl" || stats[0].P50 != 50*time.Millisecond {
		t.Fatalf("stage stats = %+v", stats)
	}
	table := RenderStageTable(traces)
	if !strings.Contains(table, "crawl") || !strings.Contains(table, "parse") {
		t.Errorf("stage table missing rows:\n%s", table)
	}
	if out := RenderOutcomes(traces); !strings.Contains(out, "active-phish") {
		t.Errorf("outcomes missing row:\n%s", out)
	}
	path := CriticalPath(tr)
	if len(path) != 2 || path[1].Name != "crawl" {
		t.Errorf("critical path = %d spans", len(path))
	}
	tree := RenderTree(tr)
	if !strings.Contains(tree, "message 1") || !strings.Contains(tree, "  stage") {
		t.Errorf("tree:\n%s", tree)
	}
}
