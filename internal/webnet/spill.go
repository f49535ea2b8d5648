package webnet

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"crawlerbox/internal/evstore"
)

// SpillTrafficTo attaches the store the network writes its traffic to:
// every exchange is encoded as one KindExchange record, so a
// million-message run keeps no per-exchange state in memory. A nil store
// detaches it, after which the network records no traffic. Read the
// records back with EachExchange.
func (n *Internet) SpillTrafficTo(store *evstore.Store) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.spill = store
}

// EachExchange calls fn for every exchange record in store, in the order
// they were written, until fn returns false. Records of other kinds are
// skipped. It returns the store's error, a closed store's included, or
// the first record that fails to decode, so a scan that could not read
// the store never reads as no traffic.
func EachExchange(store *evstore.Store, fn func(e *LoggedExchange) bool) error {
	var derr error
	err := store.Each(func(_ evstore.Handle, kind evstore.Kind, payload []byte) bool {
		if kind != evstore.KindExchange {
			return true
		}
		e, err := decodeExchange(payload)
		if err != nil {
			derr = err
			return false
		}
		return fn(&e)
	})
	if err != nil {
		return err
	}
	return derr
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
