package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"crawlerbox/internal/evstore"
)

// writeJSONLog writes specs, then done records, the way journals were
// written before the binary spec record: each spec as its JSON encoding
// through evstore.Append.
func writeJSONLog(t *testing.T, path string, specs []Spec, done []Emitted) {
	t.Helper()
	ev, err := evstore.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		payload, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ev.Append(evstore.KindIngestSpec, payload); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range done {
		payload, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ev.Append(evstore.KindIngestDone, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := ev.Close(); err != nil {
		t.Fatal(err)
	}
}

func readLog(t *testing.T, path string) *LogState {
	t.Helper()
	state, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	return state
}

// TestJSONAndMixedJournalsReplay pins journal compatibility: a journal of
// JSON spec records, and a mixed one (JSON records, then binary records
// appended after a reopen), read back to the same LogState as a binary
// journal of the same specs and replay to the same verdict stream.
func TestJSONAndMixedJournalsReplay(t *testing.T) {
	dir := t.TempDir()
	c, _ := buildWorld(t)
	specs := corpusSpecs(c)

	binPath := filepath.Join(dir, "binary.log")
	recordLog(t, binPath, specs)
	want := readLog(t, binPath)
	if len(want.Specs) != len(specs) {
		t.Fatalf("binary journal read back %d specs, want %d", len(want.Specs), len(specs))
	}
	wantStream, wantCounters := replayStream(t, binPath)

	jsonPath := filepath.Join(dir, "json.log")
	writeJSONLog(t, jsonPath, specs, nil)
	if got := readLog(t, jsonPath); !reflect.DeepEqual(got, want) {
		t.Fatal("JSON journal reads back to a different LogState than the binary one")
	}
	if stream, counters := replayStream(t, jsonPath); !bytes.Equal(stream, wantStream) || counters != wantCounters {
		t.Fatal("JSON journal replays to a different verdict stream")
	}

	// Mixed: the first half journaled as JSON with done records for its
	// first quarter, then the rest appended as binary records by a
	// reopened log, the way an upgraded daemon continues an old journal.
	_, pipe := buildWorld(t)
	ref, err := Replay(context.Background(), binPath, pipe, PipelineKeyer(pipe))
	if err != nil {
		t.Fatal(err)
	}
	half := len(specs) / 2
	mixedPath := filepath.Join(dir, "mixed.log")
	writeJSONLog(t, mixedPath, specs[:half], ref.Emitted[:half/2])
	log, err := OpenLog(mixedPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs[half:] {
		if err := log.AppendSpec(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	got := readLog(t, mixedPath)
	if !reflect.DeepEqual(got.Specs, want.Specs) {
		t.Fatal("mixed journal reads back different specs than the binary one")
	}
	if len(got.Done) != half/2 {
		t.Fatalf("mixed journal has %d done records, want %d", len(got.Done), half/2)
	}
	if stream, _ := replayStream(t, mixedPath); !bytes.Equal(stream, wantStream) {
		t.Fatal("mixed journal replays to a different verdict stream")
	}
}

// TestBinarySpecRecordIsSmaller pins what the binary record is for: the
// raw message is stored verbatim, not base64 inside JSON.
func TestBinarySpecRecordIsSmaller(t *testing.T) {
	s := Spec{ID: 42, At: time.Date(2024, 3, 1, 10, 0, 0, 0, time.UTC), Raw: bytes.Repeat([]byte("x"), 3000)}
	hdr, err := appendSpecHeader(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(hdr) + len(s.Raw); n > len(s.Raw)+64 || n >= len(js) {
		t.Fatalf("binary record is %d bytes for a %d-byte message (JSON: %d)", n, len(s.Raw), len(js))
	}
}

// sameTime reports whether two times are the same instant with the same
// zone name and offset, and both or neither in time.Local: what a JSON
// round trip preserves.
func sameTime(a, b time.Time) bool {
	an, ao := a.Zone()
	bn, bo := b.Zone()
	return a.Equal(b) && an == bn && ao == bo &&
		(a.Location() == time.Local) == (b.Location() == time.Local) &&
		(a.Location() == time.UTC) == (b.Location() == time.UTC)
}

// checkSpecRoundTrip requires decode(encode(s)) to equal s's JSON round
// trip, or both encodings to fail.
func checkSpecRoundTrip(t *testing.T, s Spec) {
	t.Helper()
	js, jsonErr := json.Marshal(s)
	hdr, binErr := appendSpecHeader(nil, s)
	if (jsonErr != nil) != (binErr != nil) {
		t.Fatalf("At %v: JSON encode error %v, binary encode error %v", s.At, jsonErr, binErr)
	}
	if jsonErr != nil {
		return
	}
	var want Spec
	if err := json.Unmarshal(js, &want); err != nil {
		t.Fatal(err)
	}
	got, err := decodeSpec(append(hdr, s.Raw...))
	if err != nil {
		t.Fatalf("At %v: decoding the binary record: %v", s.At, err)
	}
	if got.ID != want.ID || !bytes.Equal(got.Raw, want.Raw) || !sameTime(got.At, want.At) {
		t.Fatalf("binary round trip = {%d %v %q}, JSON round trip = {%d %v %q}",
			got.ID, got.At, got.Raw, want.ID, want.At, want.Raw)
	}
}

// FuzzSpecRecord checks the spec record codec. An arbitrary payload
// decodes or fails with an error, never a panic. For an At in UTC, in a
// fixed offset (named or not, whole minutes or not), in Local, zero, or
// with nanoseconds, the binary record decodes to what the JSON record
// did, Location included.
func FuzzSpecRecord(f *testing.F) {
	f.Add([]byte(nil), int64(1), int64(1709287200), int64(0), int32(0), uint8(0), []byte("raw"))
	f.Add([]byte(`{"id":3,"at":"2024-03-01T10:00:00Z","raw":"eA=="}`), int64(-7), int64(1709287200), int64(123456789), int32(19800), uint8(1), []byte{})
	f.Add([]byte{specRecordV1}, int64(1<<62), int64(1709287200), int64(999999999), int32(0), uint8(1), []byte("\x00\x01"))
	f.Add([]byte{specRecordV1, 0, 0, 0, 0, 0, 0, 0, 1, 200, 'x'}, int64(5), int64(0), int64(0), int32(-3600), uint8(2), []byte("m"))
	f.Add([]byte{specRecordV1, 0, 0, 0, 0, 0, 0, 0, 1, 4, '2', '0', '2', '4'}, int64(5), int64(0), int64(0), int32(0), uint8(3), []byte(nil))
	f.Add([]byte("{"), int64(9), int64(-62135596800), int64(1), int32(1050), uint8(4), []byte("x"))
	f.Add([]byte{'{', specRecordV1}, int64(9), int64(253402300800), int64(0), int32(0), uint8(0), []byte("year 10000"))
	f.Fuzz(func(t *testing.T, payload []byte, id, sec, nsec int64, offset int32, zone uint8, raw []byte) {
		orig := bytes.Clone(payload)
		if s, err := decodeSpec(payload); err == nil && len(payload) > 0 && payload[0] == specRecordV1 {
			if len(s.Raw) > 0 && &s.Raw[0] == &payload[len(payload)-len(s.Raw)] {
				t.Fatal("decoded Raw aliases the payload")
			}
		}
		if !bytes.Equal(payload, orig) {
			t.Fatal("decodeSpec modified its payload")
		}

		var at time.Time
		switch zone % 5 {
		case 0:
			at = time.Unix(sec, nsec).UTC()
		case 1:
			at = time.Unix(sec, nsec).In(time.FixedZone("", int(offset%(24*3600))))
		case 2:
			at = time.Unix(sec, nsec)
		case 3:
			// The zero time: the At of a spec that forks the world clock.
		case 4:
			at = time.Unix(sec, nsec).In(time.FixedZone("ZZ", int(offset%(24*3600))))
		}
		checkSpecRoundTrip(t, Spec{ID: id, At: at, Raw: raw})
	})
}

// TestSpecRecordZones runs the round trip over the zones the fuzz target
// is about, plus a zone from the zone database when the host has one.
// Local is whatever the host's zone is: the record decodes At with
// time.Time.UnmarshalText, the parser the JSON decoding uses, so the
// Local-or-fixed-zone choice is the same one on any host.
func TestSpecRecordZones(t *testing.T) {
	base := time.Date(2024, 3, 1, 10, 0, 0, 0, time.UTC)
	zones := []*time.Location{
		time.UTC, time.Local, time.FixedZone("", 0), time.FixedZone("CET", 3600),
		time.FixedZone("", -5*3600-30*60), time.FixedZone("LMT", 17*60+30),
	}
	if berlin, err := time.LoadLocation("Europe/Berlin"); err == nil {
		zones = append(zones, berlin)
	}
	for _, loc := range zones {
		for _, at := range []time.Time{base.In(loc), base.Add(123456789).In(loc), time.Time{}.In(loc)} {
			checkSpecRoundTrip(t, Spec{ID: 7, At: at, Raw: []byte("body")})
		}
	}
	checkSpecRoundTrip(t, Spec{ID: 1})
}

// TestDecodeSpecRejectsTruncated pins the binary record's error paths.
func TestDecodeSpecRejectsTruncated(t *testing.T) {
	hdr, err := appendSpecHeader(nil, Spec{ID: 1, At: time.Date(2024, 3, 1, 10, 0, 0, 0, time.UTC)})
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n < len(hdr); n++ {
		if _, err := decodeSpec(hdr[:n]); err == nil {
			t.Errorf("a %d-byte prefix of a %d-byte header decoded", n, len(hdr))
		}
	}
	if _, err := decodeSpec(hdr[:1]); !errors.Is(err, errShortSpec) {
		t.Errorf("version byte alone: err = %v, want errShortSpec", err)
	}
}
