package ingest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"crawlerbox/internal/crawlerbox"
	"crawlerbox/internal/tracestore"
)

// countingAnalyzer is a test double that counts its calls and fails every
// analysis at once.
type countingAnalyzer struct{ calls atomic.Int64 }

func (c *countingAnalyzer) Analyze(context.Context, crawlerbox.MessageSpec) (*crawlerbox.MessageAnalysis, error) {
	c.calls.Add(1)
	return nil, errors.New("stub analysis")
}

// writeLog journals specs and then done records through a Log, the way a
// daemon writes them; unlike Submit, it does not refuse a repeated ID.
func writeLog(t testing.TB, path string, specs []Spec, done []Emitted) {
	t.Helper()
	log, err := CreateLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if err := log.AppendSpec(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range done {
		if err := log.AppendDone(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// stubSpecs returns n specs with IDs 1..n and distinct small messages.
func stubSpecs(n int) []Spec {
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = Spec{ID: int64(i + 1), At: time.Date(2024, 3, 1, 10, i, 0, 0, time.UTC),
			Raw: []byte(fmt.Sprintf("message %d", i+1))}
	}
	return specs
}

// doneFor returns a fresh done record for spec id.
func doneFor(id int64) Emitted {
	return Emitted{ID: id, Provenance: ProvenanceFresh, Key: fmt.Sprintf("https://k%d.example/", id),
		Verdict: tracestore.Verdict{ID: id, Outcome: "error-page"}}
}

// TestResumeRejectsBadJournalBeforeAdmitting pins Resume's first pass: a
// journal with a repeated spec ID, or with a done record for an ID no spec
// has, fails with the error ReadLog gives, and no spec of it is analyzed
// and no record emitted, although the fault lies after specs that would
// be admitted.
func TestResumeRejectsBadJournalBeforeAdmitting(t *testing.T) {
	specs := stubSpecs(3)
	for _, tc := range []struct {
		name  string
		specs []Spec
		done  []Emitted
		want  string
	}{
		{"duplicate spec id", append(specs, Spec{ID: 2, Raw: []byte("again")}), nil,
			"ingest: duplicate spec id 2 in log"},
		{"done record for unknown id", specs, []Emitted{doneFor(1), doneFor(9)},
			"ingest: done record for unknown spec id 9"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.log")
			writeLog(t, path, tc.specs, tc.done)
			if _, err := ReadLog(path); err == nil || err.Error() != tc.want {
				t.Fatalf("ReadLog = %v, want %q", err, tc.want)
			}
			a := &countingAnalyzer{}
			keyed := 0
			keyer := func(raw []byte) string { keyed++; return string(raw) }
			svc := NewService(a, keyer, nil, WithWorkers(2))
			svc.Start(context.Background())
			if err := svc.Resume(context.Background(), path); err == nil || err.Error() != tc.want {
				t.Fatalf("Resume = %v, want %q", err, tc.want)
			}
			res, err := svc.Drain()
			if err != nil {
				t.Fatal(err)
			}
			if n := a.calls.Load(); n != 0 || keyed != 0 {
				t.Errorf("analyzer called %d times and keyer %d times, want 0", n, keyed)
			}
			if len(res.Emitted) != 0 || res.Counters != (Counters{}) {
				t.Errorf("emitted %d records, counters %+v, want none", len(res.Emitted), res.Counters)
			}
		})
	}
}

// TestReplayDoesNotCopyCheckpointedSpecs pins Resume's second pass: a spec
// with a done record is re-emitted from its done record, and its message
// is never read. Replaying a journal of large checkpointed specs therefore
// allocates less than their messages' total size.
func TestReplayDoesNotCopyCheckpointedSpecs(t *testing.T) {
	const n, size = 128, 64 << 10
	path := filepath.Join(t.TempDir(), "journal.log")
	specs := make([]Spec, n)
	done := make([]Emitted, n)
	for i := range specs {
		raw := bytes.Repeat([]byte{byte('a' + i%26)}, size)
		specs[i] = Spec{ID: int64(i + 1), At: time.Date(2024, 3, 1, 10, 0, 0, 0, time.UTC), Raw: raw}
		done[i] = doneFor(int64(i + 1))
	}
	writeLog(t, path, specs, done)

	a := &countingAnalyzer{}
	keyer := func(raw []byte) string { return string(raw) }
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Replay(context.Background(), path, a, keyer)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Resumed != n || len(res.Emitted) != n || a.calls.Load() != 0 {
		t.Fatalf("resumed %d, emitted %d, analyzed %d; want %d, %d, 0",
			res.Counters.Resumed, len(res.Emitted), a.calls.Load(), n, n)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(n*size); got >= limit {
		t.Fatalf("replay of %d checkpointed %d-byte specs allocated %d bytes, want less than %d",
			n, size, got, limit)
	}
}

// TestResumeLegacyJSONJournal pins recovery of a journal written before
// the binary spec record: Resume re-emits its done records verbatim,
// analyzes exactly the specs without one, and counts every recovered ID
// as accepted.
func TestResumeLegacyJSONJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	specs := stubSpecs(6)
	var done []Emitted
	for _, s := range specs {
		if s.ID%2 == 0 {
			done = append(done, doneFor(s.ID))
		}
	}
	writeJSONLog(t, path, specs, done)

	a := &countingAnalyzer{}
	keyer := func(raw []byte) string { return string(raw) }
	svc := NewService(a, keyer, nil, WithWorkers(2))
	ctx := context.Background()
	svc.Start(ctx)
	if err := svc.Resume(ctx, path); err != nil {
		t.Fatal(err)
	}
	if err := svc.Submit(ctx, Spec{ID: 2, Raw: []byte("again")}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("Submit of a recovered id = %v, want ErrDuplicateID", err)
	}
	res, err := svc.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if n := a.calls.Load(); n != 3 {
		t.Fatalf("analyzer called %d times, want 3 (the specs without a done record)", n)
	}
	if want := (Counters{Submitted: 6, Fresh: 6, Resumed: 3}); res.Counters != want {
		t.Fatalf("counters = %+v, want %+v", res.Counters, want)
	}
	if len(res.Emitted) != 6 {
		t.Fatalf("emitted %d records, want 6", len(res.Emitted))
	}
	for _, e := range res.Emitted {
		if e.ID%2 == 0 {
			if want := doneFor(e.ID); !reflect.DeepEqual(e, want) {
				t.Errorf("id %d: re-emitted %+v, want the done record %+v", e.ID, e, want)
			}
		} else if e.Verdict.Outcome != tracestore.OutcomeFailed || e.Key != fmt.Sprintf("message %d", e.ID) {
			t.Errorf("id %d: emitted %+v, want the stub's failed verdict under its own key", e.ID, e)
		}
	}
}
