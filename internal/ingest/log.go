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

// specID reads only the message ID of a KindIngestSpec payload: bytes 1-9
// of a binary record, the id field alone of a JSON one. The time and the
// message are not decoded, so a checkpointed spec costs no copy.
func specID(payload []byte) (int64, error) {
	if len(payload) == 0 || payload[0] != specRecordV1 {
		var s struct {
			ID int64 `json:"id"`
		}
		err := json.Unmarshal(payload, &s)
		return s.ID, err
	}
	if len(payload) < 1+8+1 {
		return 0, errShortSpec
	}
	return int64(binary.BigEndian.Uint64(payload[1:9])), nil
}

// decodeSpec decodes one KindIngestSpec payload in either form. Raw is
// copied out of payload, which may alias a mapping the caller unmaps; the
// copy is also what lets Raw key the parse memo, which keeps its key by
// reference. Recovery decodes only the specs it admits (Service.Resume),
// so each admitted message is copied exactly once.
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
// daemon's path: continue journaling to the same file, and recover its
// state with Service.Resume.
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

// journal is an ingest log opened for recovery, after the first of its
// two passes: every done record by message ID, and the number of spec
// records. The second pass walks the spec records in log order (each with
// no done callback). Service.Resume and ReadLog both read a log this way.
type journal struct {
	ev    *evstore.Store
	done  map[int64]Emitted
	specs int
}

// openJournal opens the log at path and runs the first pass: it decodes
// every done record and only the ID of every spec record (specID). A spec
// ID seen twice, or a done record for an ID no spec has, fails the log
// here, before a caller has acted on any record. The caller closes j.ev.
func openJournal(path string) (*journal, error) {
	ev, err := evstore.Open(path)
	if err != nil {
		return nil, err
	}
	j := &journal{ev: ev, done: map[int64]Emitted{}}
	seen := map[int64]struct{}{}
	err = j.each(func(id int64, _ []byte) error {
		if _, dup := seen[id]; dup {
			return fmt.Errorf("ingest: duplicate spec id %d in log", id)
		}
		seen[id] = struct{}{}
		j.specs++
		return nil
	}, func(payload []byte) error {
		var e Emitted
		if err := json.Unmarshal(payload, &e); err != nil {
			return fmt.Errorf("ingest: decoding done record: %w", err)
		}
		j.done[e.ID] = e
		return nil
	})
	if err == nil {
		for id := range j.done {
			if _, ok := seen[id]; !ok {
				err = fmt.Errorf("ingest: done record for unknown spec id %d", id)
				break
			}
		}
	}
	if err != nil {
		ev.Close()
		return nil, err
	}
	return j, nil
}

// each is the journal's one record scanner: spec gets every spec record
// with its ID, done (if not nil) every done record, in log order. The
// first error, a callback's or the store's, ends the scan. A payload
// aliases the store and is valid only during the call.
func (j *journal) each(spec func(id int64, payload []byte) error, done func(payload []byte) error) error {
	var cbErr error
	err := j.ev.Each(func(_ evstore.Handle, kind evstore.Kind, payload []byte) bool {
		switch kind {
		case evstore.KindIngestSpec:
			id, err := specID(payload)
			if err != nil {
				cbErr = fmt.Errorf("ingest: decoding spec record: %w", err)
			} else {
				cbErr = spec(id, payload)
			}
		case evstore.KindIngestDone:
			if done != nil {
				cbErr = done(payload)
			}
		}
		return cbErr == nil
	})
	if cbErr != nil {
		return cbErr
	}
	return err
}

// LogState is the decoded content of an ingest log: the accepted specs in
// submission order and the verdicts already emitted, keyed by message ID.
type LogState struct {
	Specs []Spec
	Done  map[int64]Emitted
}

// ReadLog decodes a whole ingest log, every message included, for callers
// that inspect a journal. Recovery does not use it: Service.Resume reads
// the log with the same two passes but decodes only the specs it admits.
func ReadLog(path string) (*LogState, error) {
	j, err := openJournal(path)
	if err != nil {
		return nil, err
	}
	defer j.ev.Close()
	state := &LogState{Specs: make([]Spec, 0, j.specs), Done: j.done}
	err = j.each(func(_ int64, payload []byte) error {
		s, err := decodeSpec(payload)
		if err != nil {
			return fmt.Errorf("ingest: decoding spec record: %w", err)
		}
		state.Specs = append(state.Specs, s)
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	return state, nil
}
