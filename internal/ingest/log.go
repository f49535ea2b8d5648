package ingest

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"crawlerbox/internal/evstore"
)

// Spec is one reported message submitted for analysis: the unit of work
// the ingest service accepts, journals, and feeds to the pipeline.
type Spec struct {
	// ID is the caller-assigned message ID: it seeds the analysis RNG
	// stream and keys the verdict, so it must be unique within a log.
	ID int64 `json:"id"`
	// At is the virtual analysis time (typically delivery plus the paper's
	// two-hour reporting lag). A zero At forks the world clock.
	At time.Time `json:"at"`
	// Raw is the RFC 5322 message bytes (base64 in the JSON encoding).
	Raw []byte `json:"raw"`
}

// specRecordV1 is the first byte of a binary spec record. A JSON spec
// record, the only form journals held before the binary one, always
// starts with '{'.
const specRecordV1 = 1

// specHeaderMax bounds the binary record's fixed part: version, ID,
// time-length byte, and the RFC 3339 time.
const specHeaderMax = 1 + 8 + 1 + len(time.RFC3339Nano)

// appendSpecHeader appends the binary spec record's header to b:
//
//	[1] version  specRecordV1
//	[8] id       big-endian int64
//	[1] n        length of the time text
//	[n] at       s.At as RFC 3339 text (time.Time.MarshalText)
//
// The raw message follows the header verbatim, up to the end of the
// payload. At is kept as the same RFC 3339 text the JSON record held, so
// a decoded At equals the JSON round trip's, Location included: a zero
// offset reads back as UTC and any other offset as Local when Local has
// that offset at that instant, else as an unnamed fixed zone. An At that
// JSON cannot encode (a year outside 0-9999) fails here too.
func appendSpecHeader(b []byte, s Spec) ([]byte, error) {
	at, err := s.At.MarshalText()
	if err != nil {
		return nil, err
	}
	b = append(b, specRecordV1)
	b = binary.BigEndian.AppendUint64(b, uint64(s.ID))
	b = append(b, byte(len(at)))
	return append(b, at...), nil
}

// errShortSpec reports a binary spec record cut short of its header.
var errShortSpec = errors.New("binary spec record shorter than its header")

// decodeSpec decodes one KindIngestSpec payload in either form. Raw is
// copied out of payload, which may alias a mapping the caller unmaps.
func decodeSpec(payload []byte) (Spec, error) {
	var s Spec
	if len(payload) == 0 || payload[0] != specRecordV1 {
		err := json.Unmarshal(payload, &s)
		return s, err
	}
	if len(payload) < 1+8+1 {
		return Spec{}, errShortSpec
	}
	s.ID = int64(binary.BigEndian.Uint64(payload[1:9]))
	n := int(payload[9])
	rest := payload[10:]
	if len(rest) < n {
		return Spec{}, errShortSpec
	}
	if err := s.At.UnmarshalText(rest[:n]); err != nil {
		return Spec{}, err
	}
	if raw := rest[n:]; len(raw) > 0 {
		s.Raw = append([]byte(nil), raw...)
	}
	return s, nil
}

// Log is the service's append-only ingest journal: an evstore file holding
// one KindIngestSpec record per accepted submission and one KindIngestDone
// record per emitted verdict. The pairing is the checkpoint: a restarted
// daemon re-enqueues exactly the specs without a done record and re-emits
// the done records verbatim, so work is neither lost nor re-analyzed.
//
// The journal is operational state, not a determinism artifact — done
// records land in completion order, which depends on scheduling. The
// determinism contract lives one level up: replaying a log's spec sequence
// yields a byte-identical verdict stream for any worker count.
type Log struct {
	ev *evstore.Store
}

// CreateLog creates (or truncates) an ingest log at path.
func CreateLog(path string) (*Log, error) {
	ev, err := evstore.Create(path)
	if err != nil {
		return nil, err
	}
	return &Log{ev: ev}, nil
}

// OpenLog opens an existing ingest log for appending — the restarted
// daemon's path: recover state with ReadLog, then continue journaling to
// the same file.
func OpenLog(path string) (*Log, error) {
	ev, err := evstore.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &Log{ev: ev}, nil
}

// AppendSpec journals one accepted submission as a binary spec record
// (see appendSpecHeader). The raw message is written as it is, with no
// copy into a payload buffer.
func (l *Log) AppendSpec(s Spec) error {
	if l == nil {
		return nil
	}
	var buf [specHeaderMax]byte
	hdr, err := appendSpecHeader(buf[:0], s)
	if err != nil {
		return err
	}
	if _, err := l.ev.AppendParts(evstore.KindIngestSpec, hdr, s.Raw); err != nil {
		return err
	}
	return l.ev.Flush()
}

// AppendDone journals one emitted verdict.
func (l *Log) AppendDone(e Emitted) error {
	if l == nil {
		return nil
	}
	payload, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if _, err := l.ev.Append(evstore.KindIngestDone, payload); err != nil {
		return err
	}
	return l.ev.Flush()
}

// Close closes the journal file.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	return l.ev.Close()
}

// LogState is the decoded content of an ingest log: the accepted specs in
// submission order and the verdicts already emitted, keyed by message ID.
type LogState struct {
	Specs []Spec
	Done  map[int64]Emitted
}

// ReadLog scans an ingest log. Both Replay (batch-to-completion) and a
// restarting daemon recover their state from this one view.
func ReadLog(path string) (*LogState, error) {
	ev, err := evstore.Open(path)
	if err != nil {
		return nil, err
	}
	defer ev.Close()
	state := &LogState{Done: map[int64]Emitted{}}
	seen := map[int64]bool{}
	var scanErr error
	err = ev.Each(func(_ evstore.Handle, kind evstore.Kind, payload []byte) bool {
		switch kind {
		case evstore.KindIngestSpec:
			s, err := decodeSpec(payload)
			if err != nil {
				scanErr = fmt.Errorf("ingest: decoding spec record: %w", err)
				return false
			}
			if seen[s.ID] {
				scanErr = fmt.Errorf("ingest: duplicate spec id %d in log", s.ID)
				return false
			}
			seen[s.ID] = true
			state.Specs = append(state.Specs, s)
		case evstore.KindIngestDone:
			var e Emitted
			if err := json.Unmarshal(payload, &e); err != nil {
				scanErr = fmt.Errorf("ingest: decoding done record: %w", err)
				return false
			}
			state.Done[e.ID] = e
		}
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}
	if err != nil {
		return nil, err
	}
	for id := range state.Done {
		if !seen[id] {
			return nil, fmt.Errorf("ingest: done record for unknown spec id %d", id)
		}
	}
	return state, nil
}
