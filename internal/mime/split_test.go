package mime

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// splitSeeds are multipart bodies at the splitter's edges: preamble and
// epilogue, delimiters with trailing blanks, a missing or early close,
// empty parts, a delimiter on the last line, lone CRs and LFs, "--" lines
// that are not delimiters, and a boundary that itself ends in a space.
var splitSeeds = []struct {
	body, boundary string
}{
	{"--b\r\nA: 1\r\n\r\none\r\n--b\r\nA: 2\r\n\r\ntwo\r\n--b--\r\n", "b"},
	{"preamble\r\n--b\r\nx\r\n--b--\r\nepilogue\r\n--b\r\nignored", "b"},
	{"--b \t\r\nx\r\n--b--  \r\n", "b"},
	{"--b\r\nx\r\ny\r\n", "b"},
	{"--b\r\nx\r\ny", "b"},
	{"--b\r\n--b\r\n\r\n--b--", "b"},
	{"--b", "b"},
	{"--b\r\n", "b"},
	{"--b--", "b"},
	{"--b\r\n--b--\r\n--b\r\nafter close", "b"},
	{"--b\r\nline\r\n--bx\r\n---b\r\n--b -\r\nend\r\n--b--", "b"},
	{"--b\nx\r\n--b\rx\r\n--b\r\ny\r\n\r\n--b--", "b"},
	{"\r\n--b\r\n\r\n\r\n--b--", "b"},
	{"--b \r\nx\r\n--b --\r\n", "b "},
	{"----\r\nx\r\n------", ""},
	{"no delimiter here\r\n--c\r\n", "b"},
	{"", "b"},
}

// multipartBodies returns the body and boundary of every multipart entity
// in the builder messages the corpus uses: alternatives, attachments, and
// an attached EML.
func multipartBodies(t testing.TB) [][2]string {
	at := time.Date(2024, 3, 1, 9, 0, 0, 0, time.UTC)
	// The builder derives the boundary from the date: the attached
	// message gets its own, or its delimiters would split the outer body.
	inner := NewBuilder("a@x.example", "b@y.example", "inner", at.Add(time.Hour)).
		Text("inner text").HTML("<a href=\"https://x.example/\">x</a>").Build()
	msgs := [][]byte{
		NewBuilder("it@corp.example", "user@corp.example", "reset", at).
			Text("see attachment").
			Attach("application/pdf", "invoice.pdf", bytes.Repeat([]byte("%PDF-1.4 fake "), 40)).
			Build(),
		NewBuilder("fw@x.example", "b@y.example", "fwd", at).
			Text("forwarded").HTML("<p>forwarded</p>").
			AttachEML("original.eml", inner).
			Build(),
	}
	var out [][2]string
	for _, msg := range msgs {
		var walk func(raw []byte)
		walk = func(raw []byte) {
			_, body, err := splitHeaderBody(raw)
			if err != nil {
				t.Fatal(err)
			}
			p, err := parseEntity(raw, 0)
			if err != nil {
				t.Fatal(err)
			}
			if boundary := p.Params["boundary"]; boundary != "" {
				out = append(out, [2]string{string(body), boundary})
				chunks, err := splitMultipart(body, boundary)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range chunks {
					walk(c)
				}
			}
			if p.ContentType == "message/rfc822" {
				walk(p.Body)
			}
		}
		walk(msg)
	}
	if len(out) < 3 {
		t.Fatalf("found %d multipart bodies, want at least 3", len(out))
	}
	return out
}

// checkSplit requires splitMultipart to agree with the reference on
// chunks and error, to leave body untouched, and to cap every chunk.
func checkSplit(t *testing.T, body []byte, boundary string) {
	t.Helper()
	orig := bytes.Clone(body)
	got, err := splitMultipart(body, boundary)
	want, wantErr := refSplitMultipart(orig, boundary)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("splitMultipart(%q, %q) error = %v, want %v", orig, boundary, err, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("splitMultipart(%q, %q) = %d chunks %q, want %d %q", orig, boundary, len(got), got, len(want), want)
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("splitMultipart(%q, %q) chunk %d = %q, want %q", orig, boundary, i, got[i], want[i])
		}
		if cap(got[i]) != len(got[i]) {
			t.Fatalf("chunk %d has spare capacity %d over its %d bytes", i, cap(got[i])-len(got[i]), len(got[i]))
		}
	}
	if !bytes.Equal(body, orig) {
		t.Fatalf("splitMultipart modified its input: %q, want %q", body, orig)
	}
}

// TestSplitMultipartMatchesReference runs the edge-case bodies and every
// multipart body of the builder messages through both splitters.
func TestSplitMultipartMatchesReference(t *testing.T) {
	for _, s := range splitSeeds {
		checkSplit(t, []byte(s.body), s.boundary)
	}
	for _, mb := range multipartBodies(t) {
		checkSplit(t, []byte(mb[0]), mb[1])
		// The same body with bare LFs: the reference splits on CRLF only.
		checkSplit(t, []byte(strings.ReplaceAll(mb[0], "\r\n", "\n")), mb[1])
	}
}

// FuzzSplitMultipart checks splitMultipart against the line-copying
// reference on arbitrary bodies and boundaries.
func FuzzSplitMultipart(f *testing.F) {
	for _, s := range splitSeeds {
		f.Add([]byte(s.body), s.boundary)
	}
	for _, mb := range multipartBodies(f) {
		f.Add([]byte(mb[0]), mb[1])
	}
	f.Fuzz(func(t *testing.T, body []byte, boundary string) {
		checkSplit(t, body, boundary)
	})
}

// FuzzDecodeBase64 checks that the base64 transfer decoding returns the
// bytes and the error text of the strip-then-decode reference, whether
// or not the body takes the in-place path.
func FuzzDecodeBase64(f *testing.F) {
	for _, seed := range []string{
		"",
		"SGVsbG8sIHdvcmxkIQ==",
		"SGVs\r\nbG8s\r\nIHdvcmxkIQ==\r\n",
		"SGVs bG8s\r\n\tIHdvcmxkIQ==",
		"SGk=\r\nSGk=",
		"SGk\r\n=",
		"SGk=\r\n\r\n",
		"S\rG\nk=",
		"!!!!",
		"SGVsbG8",
		"SGVsbG8=\r\n garbage",
		"\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		orig := bytes.Clone(body)
		got, err := decodeTransfer(body, "base64")
		want, wantErr := refDecodeBase64(orig)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("decodeTransfer(%q) error = %v, want %v", orig, err, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("decodeTransfer(%q) = %q, want %q", orig, got, want)
		}
		if !bytes.Equal(body, orig) {
			t.Fatalf("decodeTransfer modified its input: %q, want %q", body, orig)
		}
	})
}

// _qpSeeds probe each deviation of mime/quotedprintable from RFC 2045 and
// each of its errors, and lines on both sides of the 4 KiB line buffer its
// reader has by default.
var _qpSeeds = []string{
	"",
	"Hello, world!",
	"caf=C3=A9 cr=C3=A8me\r\n",
	"soft=\r\nbreak=\nbare LF",
	"trailing spaces   \r\nand tabs\t\t\n",
	"ends in soft break=",
	"=",
	"a=",
	"=\r\n",
	"bad = escape, =G1 and =4",
	"=4",
	"x=4",
	"x=4\r\n",
	"=\r",
	"lower =c3=a9 hex",
	"junk after soft break= x\r\nnext",
	"= \r\n",
	"=  ",
	"bare\rCR and bare\nLF",
	"ctrl \x01 byte",
	"del \x7f byte",
	"high \xff byte",
	"spaces before CRLF \r\n",
	"CR before spaces \r \n",
	strings.Repeat("a", 4094) + "\r\n",
	strings.Repeat("a", 4095) + "\n" + "tail",
	strings.Repeat("a", 4096) + "\n",
	strings.Repeat("a", 4095) + "=\n",
	strings.Repeat("b", 5000),
	strings.Repeat("=41", 1400),
}

// FuzzDecodeQP checks that the quoted-printable transfer decoding returns
// the bytes and the error text of mime/quotedprintable's reader, and
// leaves its input alone.
func FuzzDecodeQP(f *testing.F) {
	for _, seed := range _qpSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		orig := bytes.Clone(body)
		got, err := decodeTransfer(body, "quoted-printable")
		want, wantErr := refDecodeQP(orig)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("decodeTransfer(%q) error = %v, want %v", orig, err, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("decodeTransfer(%q) = %q, want %q", orig, got, want)
		}
		if !bytes.Equal(body, orig) {
			t.Fatalf("decodeTransfer modified its input: %q, want %q", body, orig)
		}
	})
}

// TestDecodeQPAllocatesOnce pins that decoding a part allocates its
// output and nothing else: no reader, buffer or regrown result.
func TestDecodeQPAllocatesOnce(t *testing.T) {
	body := []byte(strings.Repeat("caf=C3=A9 cr=C3=A8me br=C3=BBl=C3=A9e, soft=\r\nbreaks\r\n", 200))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := decodeTransfer(body, "quoted-printable"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("decoding a %d-byte body allocates %v times, want 1", len(body), allocs)
	}
}

// A base64 part's body is the lines of its whole encoding, for body
// lengths on both sides of every multiple of a line's 57 bytes, written
// after whatever the buffer already holds.
func TestWritePartBase64MatchesReference(t *testing.T) {
	for n := 0; n <= 4*57+3; n++ {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(i*7 + n)
		}
		p := builtPart{contentType: "application/octet-stream", encoding: "base64", body: body}
		var got, want bytes.Buffer
		got.WriteString("preamble\r\n")
		writePart(&got, p, false)
		want.WriteString("preamble\r\n")
		writePart(&want, builtPart{contentType: p.contentType, encoding: "base64"}, false)
		refWriteBase64(&want, body)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%d-byte body:\n%q\nwant\n%q", n, got.Bytes(), want.Bytes())
		}
	}
}

// TestParseAppendsDoNotReachInput pins the aliasing contract of the
// subslicing parser: part bodies and multipart chunks may share the
// caller's bytes, but appending to any of them never writes into those
// bytes or into the spare capacity behind them.
func TestParseAppendsDoNotReachInput(t *testing.T) {
	at := time.Date(2024, 3, 1, 9, 0, 0, 0, time.UTC)
	inner := NewBuilder("a@x.example", "b@y.example", "inner", at.Add(time.Hour)).
		Text("inner text").HTML("<p>inner</p>").Build()
	msgs := [][]byte{
		NewBuilder("a@x.example", "b@y.example", "plain", at).Text("just text").Build(),
		NewBuilder("fw@x.example", "b@y.example", "fwd", at).
			Text("forwarded").HTML("<p>forwarded</p>").
			Attach("application/pdf", "invoice.pdf", []byte("%PDF-1.4 fake")).
			AttachEML("original.eml", inner).
			Build(),
		[]byte("Content-Type: multipart/mixed; boundary=b\r\n\r\n--b\r\n\r\nfirst\r\n--b\r\nContent-Type: text/html\r\n\r\nsecond\r\n--b--\r\n"),
	}
	junk := bytes.Repeat([]byte{'#'}, 64)
	for _, msg := range msgs {
		const sentinel, spare = 0xA5, 256
		raw := make([]byte, len(msg), len(msg)+spare)
		copy(raw, msg)
		for i := len(msg); i < cap(raw); i++ {
			raw[:cap(raw)][i] = sentinel
		}
		check := func(what string) {
			t.Helper()
			if !bytes.Equal(raw, msg) {
				t.Fatalf("%s changed the caller's bytes", what)
			}
			for i, c := range raw[len(raw):cap(raw)] {
				if c != sentinel {
					t.Fatalf("%s wrote %#x into spare capacity at len+%d", what, c, i)
				}
			}
		}
		p, err := Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		err = Walk(p, func(part *Part) error {
			_ = append(part.Body, junk...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		check("appending to part bodies")

		_, body, err := splitHeaderBody(raw)
		if err != nil {
			t.Fatal(err)
		}
		_ = append(body, junk...)
		check("appending to the body")
		if boundary := p.Params["boundary"]; boundary != "" {
			chunks, err := splitMultipart(body, boundary)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range chunks {
				_ = append(c, junk...)
			}
			check("appending to multipart chunks")
		}
	}
}

// nestedMultipart wraps a text part in depth levels of multipart/mixed,
// each with its own boundary.
func nestedMultipart(depth int) []byte {
	msg := "Content-Type: text/plain\r\n\r\ncore https://deep.example/\r\n"
	for i := depth; i > 0; i-- {
		b := fmt.Sprintf("lvl%d", i)
		msg = "Content-Type: multipart/mixed; boundary=" + b + "\r\n\r\n--" + b + "\r\n" + msg + "\r\n--" + b + "--\r\n"
	}
	return []byte("Subject: nested\r\n" + msg)
}

// TestParseNestedMultipartDepth pins the multipart depth bound: nesting up
// to MaxDepth parses down to the core text, one level more is ErrTooDeep.
func TestParseNestedMultipartDepth(t *testing.T) {
	p, err := Parse(nestedMultipart(MaxDepth))
	if err != nil {
		t.Fatalf("depth %d: %v", MaxDepth, err)
	}
	leaves := Leaves(p)
	if len(leaves) != 1 || !bytes.Contains(leaves[0].Body, []byte("deep.example")) {
		t.Fatalf("depth %d: leaves = %d, want the one core text part", MaxDepth, len(leaves))
	}
	if _, err := Parse(nestedMultipart(MaxDepth + 1)); !errors.Is(err, ErrTooDeep) {
		t.Fatalf("depth %d: err = %v, want ErrTooDeep", MaxDepth+1, err)
	}
}
