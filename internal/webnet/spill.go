package webnet

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"crawlerbox/internal/evstore"
)

// SpillTrafficTo switches the Internet's exchange ledger to an on-disk
// evidence store: every logged exchange is encoded as one KindExchange
// record instead of growing the in-RAM traffic log, so a million-message
// run keeps O(1) traffic state in memory.
// Resolve likewise folds live passive-DNS observations into per-host-day
// aggregates instead of appending one QueryRecord per lookup.
//
// Call it before traffic flows; exchanges already logged in RAM stay
// there and keep being served alongside the spilled ones is NOT supported —
// the switch must happen on an empty ledger. The traffic views
// (EachTraffic, EachTrafficTo) work unchanged, decoding records on demand;
// the per-host view scans the store rather than consult an in-RAM index,
// trading read speed (it is a post-run reporting path) for a resident
// footprint independent of traffic volume.
func (n *Internet) SpillTrafficTo(store *evstore.Store) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.spill = store
}

// spillExchange encodes and appends one exchange while n.mu is held, so
// records land in log order. Lock order is always Internet.mu then
// Store.mu; the store never calls back into the Internet.
func (n *Internet) spillExchangeLocked(e *LoggedExchange) {
	//cblint:ignore guarded the sole caller (logExchange) holds n.mu across the call
	_, err := n.spill.Append(evstore.KindExchange, encodeExchange(e))
	if err != nil {
		// A failed spill (disk full, store closed) drops the exchange from
		// the ledger but must not take the simulated network down with it;
		// surface the loss on the metrics stream instead.
		n.Metrics.Inc("webnet_traffic_spill_errors_total")
	}
}

// encodeExchange flattens one exchange for the evidence store. Only the
// observable fields travel: the Request's Clock/Trace/Faults plumbing is
// per-round-trip context, meaningless after the fact. Header keys are
// sorted so equal exchanges encode to equal bytes.
func encodeExchange(e *LoggedExchange) []byte {
	buf := appendSpillString(nil, e.Request.Method)
	buf = appendSpillString(buf, e.Request.Host)
	buf = appendSpillString(buf, e.Request.Path)
	buf = appendSpillString(buf, e.Request.RawQuery)
	keys := make([]string, 0, len(e.Request.Headers))
	for k := range e.Request.Headers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = appendSpillString(buf, k)
		buf = appendSpillString(buf, e.Request.Headers[k])
	}
	buf = appendSpillString(buf, e.Request.Body)
	buf = appendSpillString(buf, e.Request.ClientIP)
	buf = appendSpillString(buf, e.Request.TLSFingerprint)
	buf = binary.AppendUvarint(buf, uint64(e.Status))
	buf = binary.AppendVarint(buf, e.At.UnixNano())
	return buf
}

// decodeExchange parses a spilled exchange record.
func decodeExchange(payload []byte) (LoggedExchange, error) {
	d := spillDecoder{buf: payload}
	var e LoggedExchange
	e.Request.Method = d.string()
	e.Request.Host = d.string()
	e.Request.Path = d.string()
	e.Request.RawQuery = d.string()
	nh := d.uvarint()
	if nh > uint64(len(payload)) {
		return e, fmt.Errorf("webnet: exchange claims %d headers in %d bytes", nh, len(payload))
	}
	if nh > 0 {
		e.Request.Headers = make(map[string]string, nh)
		for i := uint64(0); i < nh && d.err == nil; i++ {
			k := d.string()
			e.Request.Headers[k] = d.string()
		}
	}
	e.Request.Body = d.string()
	e.Request.ClientIP = d.string()
	e.Request.TLSFingerprint = d.string()
	e.Status = int(d.uvarint())
	e.At = time.Unix(0, d.varint()).UTC()
	if d.err != nil {
		return LoggedExchange{}, d.err
	}
	return e, nil
}

func appendSpillString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// spillDecoder mirrors the encoder's primitives, latching the first error.
type spillDecoder struct {
	buf []byte
	err error
}

func (d *spillDecoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("webnet: truncated exchange record")
	}
}

func (d *spillDecoder) uvarint() uint64 {
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

func (d *spillDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *spillDecoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)) {
		d.fail()
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}
