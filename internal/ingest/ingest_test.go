package ingest

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"crawlerbox/internal/crawlerbox"
	"crawlerbox/internal/dataset"
	"crawlerbox/internal/tracestore"
)

// buildWorld generates a fresh seed-7 world and its pipeline. Each caller
// gets its own: analyses mutate world state (harvested credentials,
// issued challenge tokens), so runs under byte-comparison must not share
// one.
func buildWorld(t testing.TB) (*dataset.Corpus, *crawlerbox.Pipeline) {
	t.Helper()
	c, err := dataset.Stream(dataset.Config{Seed: 7, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	pipe := crawlerbox.New(c.Net, c.Registry)
	if err := pipe.AddReferences(context.Background(), c.BrandURLs); err != nil {
		t.Fatal(err)
	}
	return c, pipe
}

// specWindowStart selects the corpus tail the ingest tests run on: the
// seed-7 corpus delivers its domain-reusing active-phish messages late, so
// this window is where duplicate landing URLs (cache hits) live.
const specWindowStart = 450

// corpusSpecs converts the windowed corpus messages into ingest specs the
// way the corpus runners do: sequential IDs, analyzed two hours after
// delivery.
func corpusSpecs(c *dataset.Corpus) []Spec {
	var specs []Spec
	c.Each(func(i int, m *dataset.Message) bool {
		if i >= specWindowStart {
			specs = append(specs, Spec{ID: int64(len(specs) + 1), At: m.Delivered.Add(2 * time.Hour), Raw: m.Raw})
		}
		return true
	})
	return specs
}

// recordLog writes a canned spec-only ingest log.
func recordLog(t testing.TB, path string, specs []Spec) {
	t.Helper()
	writeLog(t, path, specs, nil)
}

// replayStream replays a log against a fresh world and renders the
// canonical verdict stream.
func replayStream(t *testing.T, logPath string, opts ...Option) ([]byte, Counters) {
	t.Helper()
	_, pipe := buildWorld(t)
	res, err := Replay(context.Background(), logPath, pipe, PipelineKeyer(pipe), opts...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteVerdictStream(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res.Counters
}

// TestReplayDeterminism pins the headline contract: replaying the same
// ingest log is byte-identical for any worker count, with identical
// cache-hit counters.
func TestReplayDeterminism(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "ingest.log")
	c, _ := buildWorld(t)
	recordLog(t, logPath, corpusSpecs(c))

	stream1, counters1 := replayStream(t, logPath, WithWorkers(1))
	stream8, counters8 := replayStream(t, logPath, WithWorkers(8))

	if !bytes.Equal(stream1, stream8) {
		t.Fatalf("verdict streams differ between workers 1 and 8 (%d vs %d bytes)",
			len(stream1), len(stream8))
	}
	if counters1 != counters8 {
		t.Fatalf("counters differ: %+v vs %+v", counters1, counters8)
	}
	if counters1.CacheHits == 0 {
		t.Fatal("corpus produced no cache hits; the dedup contract is untested")
	}
	if counters1.Fresh+counters1.CacheHits != counters1.Submitted {
		t.Fatalf("counters don't balance: %+v", counters1)
	}
}

// TestKillResumeDeterminism pins checkpoint/resume: a log whose done
// records cover only part of the work (the crash snapshot) replays to the
// same verdict stream as the uninterrupted run — nothing lost, nothing
// re-analyzed, re-emitted rows byte-identical.
func TestKillResumeDeterminism(t *testing.T) {
	dir := t.TempDir()
	fullPath := filepath.Join(dir, "full.log")
	c, pipe := buildWorld(t)
	specs := corpusSpecs(c)

	// Uninterrupted journaled run: the reference stream plus a complete
	// journal.
	log, err := CreateLog(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(pipe, PipelineKeyer(pipe), log, WithWorkers(4))
	svc.Start(context.Background())
	for _, spec := range specs {
		if err := svc.Submit(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := svc.Drain()
	if err != nil {
		t.Fatal(err)
	}
	var refStream bytes.Buffer
	if err := ref.WriteVerdictStream(&refStream); err != nil {
		t.Fatal(err)
	}

	// Crash snapshot: all specs, but only half the done records — as if
	// the daemon died mid-run. Journals append dones in completion order;
	// any subset is a valid crash state, so an arbitrary one must resume
	// correctly.
	state, err := ReadLog(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	crashPath := filepath.Join(dir, "crash.log")
	crash, err := CreateLog(crashPath)
	if err != nil {
		t.Fatal(err)
	}
	kept := 0
	for _, s := range specs {
		if err := crash.AppendSpec(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range specs {
		if e, ok := state.Done[s.ID]; ok && s.ID%2 == 0 {
			if err := crash.AppendDone(e); err != nil {
				t.Fatal(err)
			}
			kept++
		}
	}
	if err := crash.Close(); err != nil {
		t.Fatal(err)
	}
	if kept == 0 {
		t.Fatal("crash snapshot kept no done records")
	}

	resumedStream, resumedCounters := replayStream(t, crashPath, WithWorkers(8))
	if !bytes.Equal(refStream.Bytes(), resumedStream) {
		t.Fatalf("resumed stream differs from uninterrupted run (%d vs %d bytes)",
			refStream.Len(), len(resumedStream))
	}
	if resumedCounters.Resumed != int64(kept) {
		t.Fatalf("Resumed = %d, want %d", resumedCounters.Resumed, kept)
	}
}

// TestCacheOffOutcomesAgree pins the cache-transparency contract: with the
// dedup cache disabled every message runs the full pipeline, and the
// verdict outcomes agree with the cached run entry for entry — only
// provenance (and cost) differ.
func TestCacheOffOutcomesAgree(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "ingest.log")
	c, _ := buildWorld(t)
	recordLog(t, logPath, corpusSpecs(c))

	_, pipeOn := buildWorld(t)
	on, err := Replay(context.Background(), logPath, pipeOn, PipelineKeyer(pipeOn))
	if err != nil {
		t.Fatal(err)
	}
	_, pipeOff := buildWorld(t)
	off, err := Replay(context.Background(), logPath, pipeOff, PipelineKeyer(pipeOff), WithCache(false))
	if err != nil {
		t.Fatal(err)
	}
	if on.Counters.CacheHits == 0 || off.Counters.CacheHits != 0 {
		t.Fatalf("cache counters: on=%+v off=%+v", on.Counters, off.Counters)
	}
	if len(on.Emitted) != len(off.Emitted) {
		t.Fatalf("emission counts differ: %d vs %d", len(on.Emitted), len(off.Emitted))
	}
	for i := range on.Emitted {
		a, b := on.Emitted[i], off.Emitted[i]
		if a.ID != b.ID {
			t.Fatalf("entry %d: IDs differ (%d vs %d)", i, a.ID, b.ID)
		}
		if a.Verdict.Outcome != b.Verdict.Outcome || a.Verdict.ErrorKind != b.Verdict.ErrorKind {
			t.Errorf("id %d: outcome %q/%q (cached) vs %q/%q (fresh)",
				a.ID, a.Verdict.Outcome, a.Verdict.ErrorKind, b.Verdict.Outcome, b.Verdict.ErrorKind)
		}
		if b.Provenance != ProvenanceFresh {
			t.Errorf("id %d: cache-off provenance = %q", b.ID, b.Provenance)
		}
	}
}

// blockingAnalyzer is a test double whose Analyze blocks until released.
type blockingAnalyzer struct {
	release chan struct{}
	once    sync.Once
}

func (b *blockingAnalyzer) Analyze(ctx context.Context, spec crawlerbox.MessageSpec) (*crawlerbox.MessageAnalysis, error) {
	select {
	case <-b.release:
	case <-ctx.Done():
	}
	return nil, ctx.Err()
}

func (b *blockingAnalyzer) Release() { b.once.Do(func() { close(b.release) }) }

// TestAdmissionControl pins load shedding: with maxPending reached,
// Submit fails fast with ErrOverloaded, the spec is not journaled, and
// the rejection is counted.
func TestAdmissionControl(t *testing.T) {
	ba := &blockingAnalyzer{release: make(chan struct{})}
	keyer := func(raw []byte) string { return string(raw) }
	svc := NewService(ba, keyer, nil, WithWorkers(1), WithMaxPending(2))
	ctx := context.Background()
	svc.Start(ctx)

	// Two distinct keys: the first occupies the worker, the second its
	// queue slot. Both are pending.
	if err := svc.Submit(ctx, Spec{ID: 1, Raw: []byte("a")}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Submit(ctx, Spec{ID: 2, Raw: []byte("b")}); err != nil {
		t.Fatal(err)
	}
	err := svc.Submit(ctx, Spec{ID: 3, Raw: []byte("c")})
	if err != ErrOverloaded {
		t.Fatalf("Submit #3 = %v, want ErrOverloaded", err)
	}
	ba.Release()
	res, err := svc.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Rejected != 1 || res.Counters.Submitted != 2 {
		t.Fatalf("counters = %+v, want 1 rejection over 2 accepted", res.Counters)
	}
	if len(res.Emitted) != 2 {
		t.Fatalf("emitted %d verdicts, want 2", len(res.Emitted))
	}
}

// TestCancelEmitsFailedVerdicts pins cancellation: cancelling Start's
// context while specs wait behind a blocked analysis still emits exactly
// one failed verdict per admitted submission — the running analysis cut
// off mid-flight, the queued ones never started — and Drain returns.
func TestCancelEmitsFailedVerdicts(t *testing.T) {
	ba := &blockingAnalyzer{release: make(chan struct{})}
	keyer := func(raw []byte) string { return string(raw) }
	svc := NewService(ba, keyer, nil, WithWorkers(1))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc.Start(ctx)
	// Distinct keys: one analysis blocks the worker, the rest queue.
	const n = 3
	for id := int64(1); id <= n; id++ {
		if err := svc.Submit(context.Background(), Spec{ID: id, Raw: []byte{byte('a' + id)}}); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	res, err := svc.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Emitted) != n {
		t.Fatalf("emitted %d verdicts, want %d", len(res.Emitted), n)
	}
	for i, e := range res.Emitted {
		if e.ID != int64(i+1) || e.Provenance != ProvenanceFresh {
			t.Errorf("emission %d: id %d provenance %q", i, e.ID, e.Provenance)
		}
		if e.Verdict.Outcome != tracestore.OutcomeFailed || !strings.Contains(e.Verdict.Err, context.Canceled.Error()) {
			t.Errorf("id %d: verdict %q (err %q), want a cancelled failure", e.ID, e.Verdict.Outcome, e.Verdict.Err)
		}
	}
	if _, pending := svc.Stats(); pending != 0 {
		t.Errorf("pending = %d after drain", pending)
	}
}

// TestWaiterFlush pins the singleflight path: a second submission of an
// in-flight key becomes a waiter, is counted a cache hit at admission,
// and is emitted as cached once the source analysis completes.
func TestWaiterFlush(t *testing.T) {
	ba := &blockingAnalyzer{release: make(chan struct{})}
	keyer := func(raw []byte) string { return "same-key" }
	svc := NewService(ba, keyer, nil, WithWorkers(2))
	ctx := context.Background()
	svc.Start(ctx)
	if err := svc.Submit(ctx, Spec{ID: 1, Raw: []byte("a")}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Submit(ctx, Spec{ID: 2, Raw: []byte("b")}); err != nil {
		t.Fatal(err)
	}
	counters, _ := svc.Stats()
	if counters.CacheHits != 1 || counters.Fresh != 1 {
		t.Fatalf("admission counters = %+v, want 1 fresh + 1 hit", counters)
	}
	ba.Release()
	res, err := svc.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Emitted) != 2 {
		t.Fatalf("emitted %d verdicts, want 2", len(res.Emitted))
	}
	if res.Emitted[0].Provenance != ProvenanceFresh || res.Emitted[1].Provenance != ProvenanceCached {
		t.Fatalf("provenances = %q, %q", res.Emitted[0].Provenance, res.Emitted[1].Provenance)
	}
	if res.Emitted[1].CachedFrom != 1 {
		t.Fatalf("CachedFrom = %d, want 1", res.Emitted[1].CachedFrom)
	}
}

// TestLogRoundTrip pins the journal codec: specs and done records read
// back exactly, and appending to a reopened log continues it.
func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	specs := []Spec{
		{ID: 1, At: time.Date(2024, 3, 1, 10, 0, 0, 0, time.UTC), Raw: []byte("first")},
		{ID: 2, At: time.Date(2024, 3, 1, 11, 0, 0, 0, time.UTC), Raw: []byte("second")},
	}
	log, err := CreateLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.AppendSpec(specs[0]); err != nil {
		t.Fatal(err)
	}
	done := Emitted{ID: 1, Provenance: ProvenanceFresh, Key: "https://k.example/",
		Verdict: tracestore.Verdict{ID: 1, Outcome: "error-page"}}
	if err := log.AppendDone(done); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen for append — the restarted-daemon path.
	log2, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := log2.AppendSpec(specs[1]); err != nil {
		t.Fatal(err)
	}
	if err := log2.Close(); err != nil {
		t.Fatal(err)
	}

	state, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(state.Specs) != 2 || state.Specs[0].ID != 1 || state.Specs[1].ID != 2 {
		t.Fatalf("specs = %+v", state.Specs)
	}
	if string(state.Specs[1].Raw) != "second" || !state.Specs[1].At.Equal(specs[1].At) {
		t.Fatalf("spec 2 round-trip = %+v", state.Specs[1])
	}
	got, ok := state.Done[1]
	if !ok || got.Verdict.Outcome != "error-page" || got.Provenance != ProvenanceFresh {
		t.Fatalf("done record round-trip = %+v (ok=%v)", got, ok)
	}
}

// TestDuplicateIDRejected pins duplicate-ID admission: a repeated message
// ID fails with ErrDuplicateID and is not journaled, so the journal still
// reads back, and a service resumed from it rejects the recovered IDs.
func TestDuplicateIDRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	keyer := func(raw []byte) string { return string(raw) }
	ctx := context.Background()
	log, err := CreateLog(path)
	if err != nil {
		t.Fatal(err)
	}
	ba := &blockingAnalyzer{release: make(chan struct{})}
	svc := NewService(ba, keyer, log, WithWorkers(1))
	svc.Start(ctx)
	if err := svc.Submit(ctx, Spec{ID: 1, Raw: []byte("a")}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Submit(ctx, Spec{ID: 1, Raw: []byte("b")}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("second Submit of id 1 = %v, want ErrDuplicateID", err)
	}
	if counters, _ := svc.Stats(); counters.Submitted != 1 {
		t.Fatalf("counters = %+v, want one submission", counters)
	}
	ba.Release()
	if _, err := svc.Drain(); err != nil {
		t.Fatal(err)
	}

	state, err := ReadLog(path)
	if err != nil {
		t.Fatalf("journal unreadable after a duplicate submission: %v", err)
	}
	if len(state.Specs) != 1 || string(state.Specs[0].Raw) != "a" {
		t.Fatalf("journal specs = %+v, want only the first submission", state.Specs)
	}
	log, err = OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	svc = NewService(ba, keyer, log, WithWorkers(1))
	svc.Start(ctx)
	if err := svc.Resume(ctx, path); err != nil {
		t.Fatal(err)
	}
	if err := svc.Submit(ctx, Spec{ID: 1, Raw: []byte("c")}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("Submit of a resumed id = %v, want ErrDuplicateID", err)
	}
	if err := svc.Submit(ctx, Spec{ID: 2, Raw: []byte("c")}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	if state, err := ReadLog(path); err != nil || len(state.Specs) != 2 {
		t.Fatalf("journal after resume: %v specs, err %v", state, err)
	}
}

// TestCancelledEnqueueReleasesKey pins the cancelled-enqueue path: a
// submission whose context ends while it waits for a queue slot leaves no
// cache entry and is not counted, so a later submission of the same key
// runs fresh instead of waiting forever on an analysis that never started.
func TestCancelledEnqueueReleasesKey(t *testing.T) {
	ba := &blockingAnalyzer{release: make(chan struct{})}
	keyer := func(raw []byte) string { return string(raw) }
	svc := NewService(ba, keyer, nil, WithWorkers(1))
	ctx := context.Background()
	svc.Start(ctx)
	// One worker blocks on the first spec; three fresh submissions fill
	// its three slots.
	for id := int64(1); id <= 3; id++ {
		if err := svc.Submit(ctx, Spec{ID: id, Raw: []byte{byte('a' + id)}}); err != nil {
			t.Fatal(err)
		}
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := svc.Submit(cancelled, Spec{ID: 4, Raw: []byte("x")}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit under a cancelled context = %v, want context.Canceled", err)
	}
	ba.Release()
	if err := svc.Submit(ctx, Spec{ID: 5, Raw: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	res, err := svc.Drain()
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for _, e := range res.Emitted {
		ids = append(ids, e.ID)
		if e.Provenance != ProvenanceFresh {
			t.Errorf("id %d: provenance %q, want fresh", e.ID, e.Provenance)
		}
	}
	if len(ids) != 4 || ids[3] != 5 {
		t.Fatalf("emitted ids %v, want 1, 2, 3 and 5", ids)
	}
	want := Counters{Submitted: 4, Fresh: 4}
	if res.Counters != want {
		t.Fatalf("counters = %+v, want %+v", res.Counters, want)
	}
}

// TestCancelledSubmitCanRetry pins that a submission cancelled while it
// waits for a queue slot is neither journaled nor remembered: its client
// retries the same ID, which is accepted, journaled once and emitted.
func TestCancelledSubmitCanRetry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	log, err := CreateLog(path)
	if err != nil {
		t.Fatal(err)
	}
	ba := &blockingAnalyzer{release: make(chan struct{})}
	keyer := func(raw []byte) string { return string(raw) }
	svc := NewService(ba, keyer, log, WithWorkers(1))
	ctx := context.Background()
	svc.Start(ctx)
	for id := int64(1); id <= 3; id++ {
		if err := svc.Submit(ctx, Spec{ID: id, Raw: []byte{byte('a' + id)}}); err != nil {
			t.Fatal(err)
		}
	}
	// The queue is full: the worker is blocked on ID 1.
	waiting, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- svc.Submit(waiting, Spec{ID: 4, Raw: []byte("x")}) }()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit cancelled behind a full queue = %v, want context.Canceled", err)
	}
	if counters, _ := svc.Stats(); counters.Submitted != 3 {
		t.Fatalf("counters after the cancelled Submit = %+v, want 3 submitted", counters)
	}
	ba.Release()
	if err := svc.Submit(ctx, Spec{ID: 4, Raw: []byte("x")}); err != nil {
		t.Fatalf("retry of the cancelled ID = %v", err)
	}
	res, err := svc.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Emitted) != 4 || res.Emitted[3].ID != 4 || res.Emitted[3].Provenance != ProvenanceFresh {
		t.Fatalf("emitted %+v, want IDs 1-4, the retried ID 4 fresh", res.Emitted)
	}
	if want := (Counters{Submitted: 4, Fresh: 4}); res.Counters != want {
		t.Fatalf("counters = %+v, want %+v", res.Counters, want)
	}
	state, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(state.Specs) != 4 || len(state.Done) != 4 {
		t.Fatalf("journal holds %d specs and %d done records, want 4 of each", len(state.Specs), len(state.Done))
	}
}

// TestJournalFailureLeavesNoTrace pins admission's order: a spec the
// journal refuses takes no queue slot, no cache entry, no ID and no count.
func TestJournalFailureLeavesNoTrace(t *testing.T) {
	log, err := CreateLog(filepath.Join(t.TempDir(), "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	ba := &blockingAnalyzer{release: make(chan struct{})}
	keyer := func(raw []byte) string { return string(raw) }
	svc := NewService(ba, keyer, log, WithWorkers(1))
	ctx := context.Background()
	svc.Start(ctx)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Submit(ctx, Spec{ID: 1, Raw: []byte("a")}); err == nil {
		t.Fatal("Submit journaled to a closed log")
	}
	if counters, pending := svc.Stats(); counters != (Counters{}) || pending != 0 {
		t.Fatalf("counters = %+v, pending %d after a refused spec", counters, pending)
	}
	if len(svc.slots) != 0 || svc.cache.has("a") || len(svc.ids) != 0 {
		t.Fatalf("refused spec left state: %d slots, cache entry %v, %d ids", len(svc.slots), svc.cache.has("a"), len(svc.ids))
	}
	// Drain stops the workers; its error is the log closed a second time.
	_, _ = svc.Drain()
}
