package mime

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
)

// Header is one entity's header block. Each field keeps its name and value
// as slices of the message; Get converts the one it returns.
type Header struct {
	fields []headerField
}

// headerField is one field of a header block.
type headerField struct {
	// name is the field name as written, before the colon.
	name []byte
	// value is the value with its surrounding blanks trimmed; for a folded
	// field it is everything after the colon up to the end of its last
	// continuation line, unfolded by Get.
	value  []byte
	folded bool
}

// Get returns the value of the first field named name, or "" when there is
// none, with the lookup rules of textproto.MIMEHeader.Get: a name made of
// token bytes matches field names that equal it up to ASCII case, and any
// other name matches only a field name written exactly so (a name with a
// space before the colon is kept as written, not canonicalized).
func (h Header) Get(name string) string {
	token := isToken(name)
	for _, f := range h.fields {
		if token && equalFoldASCII(f.name, name) || !token && string(f.name) == name {
			if f.folded {
				return string(bytes.TrimLeft(unfold(f.value), " \t"))
			}
			return string(f.value)
		}
	}
	return ""
}

// headerError is the text of a header block that fails to parse; each
// text is the one textproto.Reader.ReadMIMEHeader returns for that fault.
type headerError string

func (e headerError) Error() string { return string(e) }

// errHeaderTooLarge is ReadMIMEHeader's error for a leading continuation
// line longer than the 80 bytes it quotes.
var errHeaderTooLarge = errors.New("message too large")

// readHeader reads a header block the way textproto.Reader.ReadMIMEHeader
// reads it followed by a blank line. hdr holds the block's lines, each
// ended by CRLF except perhaps the last, and no lone LF (Parse normalizes
// line ends once per message). A line that starts with a space or tab
// continues the field before it; an empty line ends the block.
func readHeader(hdr []byte) (Header, error) {
	if len(hdr) > 0 && (hdr[0] == ' ' || hdr[0] == '\t') {
		line, _ := nextLine(hdr, 0)
		if len(line) > 80 {
			return Header{}, errHeaderTooLarge
		}
		return Header{}, headerError("malformed MIME header initial line: " + string(line))
	}
	// Every field takes at least one line, so the line count sizes the
	// field table once.
	h := Header{fields: make([]headerField, 0, bytes.Count(hdr, lf)+1)}
	for pos := 0; pos < len(hdr); {
		line, next := nextLine(hdr, pos)
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return Header{}, headerError(fmt.Sprintf("malformed MIME header: missing colon: %q", line))
		}
		f := headerField{name: line[:colon], value: trimBlank(line[colon+1:])}
		valid := validValue(line[colon+1:])
		for next < len(hdr) && (hdr[next] == ' ' || hdr[next] == '\t') {
			cont, after := nextLine(hdr, next)
			valid = valid && validValue(cont)
			next = after
			f.folded = true
		}
		// raw is the value as written, continuation lines included.
		raw := bytes.TrimSuffix(hdr[pos:next], crlf)[colon+1:]
		if f.folded {
			f.value = raw
		}
		if !validName(f.name) || !valid {
			// textproto quotes the line after canonicalizing a name it
			// accepts, unless the name holds a space.
			name := bytes.Clone(f.name)
			if isToken(string(name)) {
				canonicalize(name)
			}
			kv := append(append(name, ':'), unfold(raw)...)
			return Header{}, headerError("malformed MIME header line: " + string(kv))
		}
		h.fields = append(h.fields, f)
		pos = next
	}
	return h, nil
}

// nextLine returns the line of b that starts at pos, without the CRLF that
// ends it, and the offset after that CRLF (len(b) for a last line without
// one).
func nextLine(b []byte, pos int) ([]byte, int) {
	rest := b[pos:]
	if i := bytes.Index(rest, crlf); i >= 0 {
		return rest[:i], pos + i + 2
	}
	return rest, len(b)
}

// unfold joins a field value and its continuation lines the way textproto
// does: the first line loses its trailing blanks, and each continuation
// line, trimmed of its blanks, follows a single space.
func unfold(v []byte) []byte {
	first, next := nextLine(v, 0)
	out := make([]byte, 0, len(v))
	out = append(out, trimRightBlank(first)...)
	for next < len(v) {
		var cont []byte
		cont, next = nextLine(v, next)
		out = append(append(out, ' '), trimBlank(cont)...)
	}
	return out
}

func trimBlank(b []byte) []byte {
	i := 0
	for i < len(b) && (b[i] == ' ' || b[i] == '\t') {
		i++
	}
	return trimRightBlank(b[i:])
}

func trimRightBlank(b []byte) []byte {
	n := len(b)
	for n > 0 && (b[n-1] == ' ' || b[n-1] == '\t') {
		n--
	}
	return b[:n]
}

// validName reports whether textproto accepts a field name: one or more
// token bytes or spaces.
func validName(name []byte) bool {
	if len(name) == 0 {
		return false
	}
	for _, c := range name {
		if !tokenByte(c) && c != ' ' {
			return false
		}
	}
	return true
}

// validValue reports whether every byte of a value line is a visible
// character, a space, a tab or a byte of 0x80 and over (RFC 7230's
// field-content with obs-text, as textproto checks it).
func validValue(v []byte) bool {
	for _, c := range v {
		if c < ' ' && c != '\t' || c == 0x7f {
			return false
		}
	}
	return true
}

// isToken reports whether s is a non-empty RFC 7230 token, the names
// textproto canonicalizes.
func isToken(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !tokenByte(s[i]) {
			return false
		}
	}
	return true
}

// tokenByte reports whether c is an RFC 7230 tchar.
func tokenByte(c byte) bool {
	switch {
	case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		return true
	}
	return strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0
}

// canonicalize rewrites a token name in textproto's canonical form: upper
// case at the start and after each hyphen, lower case elsewhere.
func canonicalize(name []byte) {
	upper := true
	for i, c := range name {
		if upper && 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		} else if !upper && 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		name[i] = c
		upper = c == '-'
	}
}

// equalFoldASCII reports whether b and s are equal up to ASCII case.
func equalFoldASCII(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i, c := range b {
		d := s[i]
		if c == d {
			continue
		}
		if c|0x20 != d|0x20 || c|0x20 < 'a' || c|0x20 > 'z' {
			return false
		}
	}
	return true
}
