package crawlerbox

import (
	"encoding/binary"
	"fmt"

	"crawlerbox/internal/browser"
	"crawlerbox/internal/evstore"
	"crawlerbox/internal/imaging"
)

// VisitEvidence is the on-disk form of one VisitRecord: everything bulky a
// crawl produced (markup, screenshot bytes, console output, request log),
// flattened so it round-trips through a compact binary codec. The DOM tree
// is not stored — HTML retains the markup and can be re-parsed on load.
type VisitEvidence struct {
	URL string
	// Err is the visit error text ("" when the visit succeeded).
	Err string
	// Missing marks a VisitRecord that carried no browser result at all.
	Missing bool

	RequestedURL string
	FinalURL     string
	Status       int
	HTML         string
	// Screenshot holds the CBI-encoded screenshot bytes (nil when the
	// visit produced none).
	Screenshot   []byte
	Console      []string
	Scripts      []string
	ScriptErrors []string
	Navigations  []string
	Requests     []browser.RequestRecord
	DebuggerHits int
	Degraded     bool
}

// evidenceVersion is the codec version byte leading every evidence record.
const evidenceVersion = 1

// EncodeEvidence serializes a message's visit records into one evidence
// payload. The encoding is varint-framed and self-contained: no field
// references anything outside the payload, so a record decodes without the
// run that produced it. A screenshot that nothing has read yet is painted
// for the record and not kept (browser.Result.PaintScreenshot).
func EncodeEvidence(visits []VisitRecord) []byte {
	var e EvidenceEncoder
	return e.encode(visits)
}

// EvidenceEncoder encodes evidence records into a record buffer and a
// screenshot canvas it keeps from one record to the next, so an encoder
// that serves many messages (one per spilling worker) allocates neither
// per record. The zero value is ready to use. An encoder is not safe for
// concurrent use.
type EvidenceEncoder struct {
	buf    []byte
	canvas *imaging.Image
}

// encode serializes visits as EncodeEvidence does. The result aliases the
// encoder's buffer: it is valid until the next encode.
func (e *EvidenceEncoder) encode(visits []VisitRecord) []byte {
	buf := append(e.buf[:0], evidenceVersion)
	buf = binary.AppendUvarint(buf, uint64(len(visits)))
	for i := range visits {
		buf = e.appendVisit(buf, &visits[i])
	}
	e.buf = buf
	return buf
}

func (e *EvidenceEncoder) appendVisit(buf []byte, v *VisitRecord) []byte {
	buf = appendString(buf, v.URL)
	errText := ""
	if v.Err != nil {
		errText = v.Err.Error()
	}
	buf = appendString(buf, errText)
	res := v.Result
	buf = appendBool(buf, res == nil)
	if res == nil {
		return buf
	}
	buf = appendString(buf, res.RequestedURL)
	buf = appendString(buf, res.FinalURL)
	buf = binary.AppendUvarint(buf, uint64(res.Status))
	buf = appendString(buf, res.HTML)
	if img := res.PaintScreenshot(e.canvas); img != nil {
		if img != res.Screenshot {
			e.canvas = img // painted, not stored: the next paint reuses it
		}
		buf = binary.AppendUvarint(buf, uint64(imaging.CBILen(img)))
		buf = imaging.AppendCBI(buf, img)
	} else {
		buf = binary.AppendUvarint(buf, 0)
	}
	buf = appendStrings(buf, res.Console)
	buf = appendStrings(buf, res.Scripts)
	buf = appendStrings(buf, res.ScriptErrors)
	buf = appendStrings(buf, res.Navigations)
	buf = binary.AppendUvarint(buf, uint64(len(res.Requests)))
	for _, r := range res.Requests {
		buf = appendString(buf, r.URL)
		buf = appendString(buf, r.Method)
		buf = appendString(buf, r.Initiator)
		buf = appendString(buf, r.Referer)
		buf = binary.AppendUvarint(buf, uint64(r.Status))
		buf = appendString(buf, r.Err)
	}
	buf = binary.AppendUvarint(buf, uint64(res.DebuggerHits))
	buf = appendBool(buf, res.Degraded)
	return buf
}

// DecodeEvidence parses an evidence payload back into visit evidence.
func DecodeEvidence(payload []byte) ([]VisitEvidence, error) {
	d := &evDecoder{buf: payload}
	if v := d.byte(); v != evidenceVersion {
		return nil, fmt.Errorf("crawlerbox: evidence version %d, want %d", v, evidenceVersion)
	}
	n := d.uvarint()
	if n > uint64(len(payload)) {
		return nil, fmt.Errorf("crawlerbox: evidence claims %d visits in %d bytes", n, len(payload))
	}
	out := make([]VisitEvidence, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		var ev VisitEvidence
		ev.URL = d.string()
		ev.Err = d.string()
		ev.Missing = d.bool()
		if !ev.Missing {
			ev.RequestedURL = d.string()
			ev.FinalURL = d.string()
			ev.Status = int(d.uvarint())
			ev.HTML = d.string()
			ev.Screenshot = d.bytes()
			ev.Console = d.strings()
			ev.Scripts = d.strings()
			ev.ScriptErrors = d.strings()
			ev.Navigations = d.strings()
			nr := d.uvarint()
			if nr > uint64(len(payload)) {
				return nil, fmt.Errorf("crawlerbox: evidence claims %d requests in %d bytes", nr, len(payload))
			}
			for j := uint64(0); j < nr && d.err == nil; j++ {
				ev.Requests = append(ev.Requests, browser.RequestRecord{
					URL:       d.string(),
					Method:    d.string(),
					Initiator: d.string(),
					Referer:   d.string(),
					Status:    int(d.uvarint()),
					Err:       d.string(),
				})
			}
			ev.DebuggerHits = int(d.uvarint())
			ev.Degraded = d.bool()
		}
		out = append(out, ev)
	}
	if d.err != nil {
		return nil, d.err
	}
	return out, nil
}

// SpillEvidence encodes ma's visit records with enc, appends them to the
// store as one KindAnalysis record, stamps the returned handle on
// ma.Evidence, and drops ma.Visits so the bulky evidence no longer pins
// RAM. Callers that still need the visit data (hot-load detection, landing
// titles) must consume it before spilling. A nil store or an analysis with
// no visits is a no-op.
func SpillEvidence(store *evstore.Store, enc *EvidenceEncoder, ma *MessageAnalysis) error {
	if store == nil || ma == nil || len(ma.Visits) == 0 {
		return nil
	}
	h, err := store.Append(evstore.KindAnalysis, enc.encode(ma.Visits))
	if err != nil {
		return err
	}
	ma.Evidence = h
	ma.Visits = nil
	return nil
}

// LoadEvidence reads back the evidence record a spilled analysis points to.
func LoadEvidence(store *evstore.Store, h evstore.Handle) ([]VisitEvidence, error) {
	kind, payload, err := store.At(h)
	if err != nil {
		return nil, err
	}
	if kind != evstore.KindAnalysis {
		return nil, fmt.Errorf("crawlerbox: handle addresses kind %d, want analysis", kind)
	}
	return DecodeEvidence(payload)
}

// --- codec primitives ---

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendStrings(buf []byte, ss []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = appendString(buf, s)
	}
	return buf
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// evDecoder reads the codec's primitives, latching the first error so
// callers can decode a full struct and check once.
type evDecoder struct {
	buf []byte
	err error
}

func (d *evDecoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("crawlerbox: truncated evidence payload")
	}
}

func (d *evDecoder) byte() byte {
	if d.err != nil || len(d.buf) < 1 {
		d.fail()
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *evDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *evDecoder) take(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)) {
		d.fail()
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *evDecoder) string() string { return string(d.take(d.uvarint())) }

func (d *evDecoder) bytes() []byte {
	b := d.take(d.uvarint())
	if len(b) == 0 {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

func (d *evDecoder) strings() []string {
	n := d.uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(d.buf))+1 {
		d.fail()
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		out = append(out, d.string())
	}
	return out
}

func (d *evDecoder) bool() bool { return d.byte() != 0 }
