package mime

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"slices"
	"testing"
	"time"
)

// FuzzParseMessage drives the recursive RFC-5322/MIME parser with builder
// output — multipart, nested message/rfc822, attachments — plus corrupted
// and hostile variants. The contract: never panic, never return a nil
// *Part without an error, and never write to the input — neither its bytes
// nor the spare capacity behind them, which every input here carries,
// filled with sentinels. The tree must match refParse's, which normalizes
// line ends and reads headers with textproto at every entity. Each input
// is parsed twice, with a Release in
// between, so the second parse decodes into the buffers the first gave
// back: it must return the same bodies, and Release must leave no Body
// behind. The seed corpus runs as ordinary test cases;
// `go test -fuzz=FuzzParseMessage` explores beyond it.
func FuzzParseMessage(f *testing.F) {
	at := time.Date(2024, 3, 1, 9, 0, 0, 0, time.UTC)
	simple := NewBuilder("a@x.example", "b@y.example", "hello", at).
		Text("plain body").Build()
	multipart := NewBuilder("it@corp.example", "user@corp.example", "reset", at).
		Text("see attachment").
		Attach("application/pdf", "invoice.pdf", []byte("%PDF-1.4 fake")).
		Build()
	nested := NewBuilder("fw@x.example", "b@y.example", "fwd", at).
		Text("forwarded").
		AttachEML("original.eml", simple).
		Build()
	f.Add(simple)
	f.Add(multipart)
	f.Add(nested)
	f.Add(multipart[:len(multipart)/2])
	f.Add(bytes.Replace(multipart, []byte("boundary"), []byte("bound"), 1))
	f.Add([]byte("Subject: bare\r\n\r\n"))
	// Regression: a base64 body exercises the decodeTransfer clamp of the
	// decoded length against the output buffer.
	f.Add([]byte("Content-Transfer-Encoding: base64\r\nContent-Type: text/plain\r\n\r\nSGVs bG8s\r\nIHdvcmxkIQ==\r\n"))
	f.Add([]byte("no headers at all"))
	f.Add([]byte{})
	// Regression: a message without any line break used to be returned
	// uncopied by normalizeCRLF, and the header parse appended CRLF to it,
	// writing into the caller's spare capacity.
	f.Add([]byte("Subject: hi"))
	// Bare LF line ends: in the message itself, and in an attached message
	// that transfer decoding produces, which is normalized on its own.
	f.Add(bytes.ReplaceAll(nested, []byte("\r\n"), []byte("\n")))
	inner := "Subject: inner\nContent-Type: text/plain\n\nline one\nline two\n"
	f.Add([]byte("Subject: b64 eml\r\nContent-Type: message/rfc822\r\nContent-Transfer-Encoding: base64\r\n\r\n" +
		base64.StdEncoding.EncodeToString([]byte(inner)) + "\r\n"))
	f.Add([]byte("Subject: qp eml\nContent-Type: message/rfc822\nContent-Transfer-Encoding: quoted-printable\n\n" +
		"Subject: inner=0A=0Abody=0Aline\n"))
	// Multipart nested to the depth bound and past it (ErrTooDeep).
	f.Add(nestedMultipart(MaxDepth))
	f.Add(nestedMultipart(MaxDepth + 1))
	f.Fuzz(func(t *testing.T, raw []byte) {
		const sentinel, spare = 0xA5, 8
		buf := make([]byte, len(raw), len(raw)+spare)
		copy(buf, raw)
		tail := buf[len(raw):cap(buf)]
		for i := range tail {
			tail[i] = sentinel
		}
		p, err := Parse(buf)
		if err == nil && p == nil {
			t.Fatal("Parse returned nil *Part with nil error")
		}
		want, wantErr := refParse(bytes.Clone(raw), 0)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("Parse error = %v, reference %v", err, wantErr)
		}
		if err == nil {
			if d := diffParse(p, want, "root"); d != "" {
				t.Fatalf("Parse diverges from the reference parse: %s", d)
			}
			first := leafBodies(p)
			p.Release()
			_ = Walk(p, func(q *Part) error {
				if q.Body != nil {
					t.Fatal("Release left a Body in the tree")
				}
				return nil
			})
			again, err := Parse(buf)
			if err != nil {
				t.Fatalf("second parse failed: %v", err)
			}
			if second := leafBodies(again); !slices.EqualFunc(first, second, bytes.Equal) {
				t.Fatalf("second parse after Release returned other bodies: %q, want %q", second, first)
			}
			again.Release()
		}
		if !bytes.Equal(buf, raw) {
			t.Fatalf("Parse modified its input: %q, want %q", buf, raw)
		}
		for i, c := range tail {
			if c != sentinel {
				t.Fatalf("Parse wrote %#x into spare capacity at len+%d", c, i)
			}
		}
	})
}

// leafBodies copies the body of every leaf part, in document order.
func leafBodies(p *Part) [][]byte {
	var out [][]byte
	for _, l := range Leaves(p) {
		out = append(out, bytes.Clone(l.Body))
	}
	return out
}

// normalizeCRLFReference is the byte-at-a-time rewrite normalizeCRLF
// replaced: the differential oracle for it.
func normalizeCRLFReference(raw []byte) []byte {
	if !bytes.Contains(raw, []byte("\n")) {
		return raw
	}
	var out bytes.Buffer
	for i := 0; i < len(raw); i++ {
		if raw[i] == '\n' && (i == 0 || raw[i-1] != '\r') {
			out.WriteByte('\r')
		}
		out.WriteByte(raw[i])
	}
	return out.Bytes()
}

// FuzzNormalizeCRLF checks normalizeCRLF against the byte-at-a-time
// reference, and that it leaves its input untouched.
func FuzzNormalizeCRLF(f *testing.F) {
	for _, seed := range []string{
		"",
		"\n",
		"\nSubject: lone LF at byte 0\r\n",
		"Subject: trailing LF\r\n\r\nbody\n",
		"From: a\r\nSubject: mixed\n\r\nbody\r\nline\n\nend\r\n",
		"Subject: CR without LF\r\rbody\r",
		"\r\n\r\n",
		"\n\n\r\n\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		orig := bytes.Clone(raw)
		got := normalizeCRLF(raw)
		if want := normalizeCRLFReference(orig); !bytes.Equal(got, want) {
			t.Fatalf("normalizeCRLF(%q) = %q, want %q", orig, got, want)
		}
		if !bytes.Equal(raw, orig) {
			t.Fatalf("normalizeCRLF modified its input: %q, want %q", raw, orig)
		}
	})
}

// TestNormalizeCRLFAllCRLFDoesNotCopy pins the fast path: wire-format mail
// is already CRLF, and normalizing it must neither allocate nor copy.
func TestNormalizeCRLFAllCRLFDoesNotCopy(t *testing.T) {
	at := time.Date(2024, 3, 1, 9, 0, 0, 0, time.UTC)
	raw := NewBuilder("it@corp.example", "user@corp.example", "reset", at).
		Text("line one\r\nline two").
		Attach("application/pdf", "invoice.pdf", []byte("%PDF-1.4 fake")).
		Build()
	if bytes.Contains(bytes.ReplaceAll(raw, []byte("\r\n"), nil), []byte("\n")) {
		t.Fatal("builder output has a lone LF; the test needs all-CRLF input")
	}
	var got []byte
	if allocs := testing.AllocsPerRun(100, func() { got = normalizeCRLF(raw) }); allocs != 0 {
		t.Errorf("normalizeCRLF allocated %v times on all-CRLF input, want 0", allocs)
	}
	if len(got) != len(raw) || &got[0] != &raw[0] {
		t.Error("normalizeCRLF copied all-CRLF input instead of returning it")
	}
}
