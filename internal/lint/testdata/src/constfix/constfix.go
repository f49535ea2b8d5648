// Package constfix is the hotalloc constant-table fixture: a replacer or
// regexp built from constants inside a function body is the same table
// rebuilt on every call, and is a finding; built at package level, from
// arguments, or in init it is not.
package constfix

import (
	"regexp"
	"strings"
)

// Package-level tables are built once.
var (
	_escaper = strings.NewReplacer("&", "&amp;", "<", "&lt;")
	_digits  = regexp.MustCompile(`[0-9]+`)
)

const sep = "-"

// Escape rebuilds its replacer per call.
func Escape(s string) string {
	return strings.NewReplacer("&", "&amp;", "<", "&lt;").Replace(s) // want "strings.NewReplacer with constant arguments"
}

// Dashed rebuilds a regexp from a constant expression per call.
func Dashed(s string) bool {
	return regexp.MustCompile(`^a+` + sep).MatchString(s) // want "regexp.MustCompile with constant arguments"
}

// Compiled rebuilds a regexp per call and per closure call.
func Compiled() (func(string) bool, error) {
	re, err := regexp.Compile("b*") // want "regexp.Compile with constant"
	return func(s string) bool {
		return re.MatchString(s) && regexp.MustCompilePOSIX("c").MatchString(s) // want "regexp.MustCompilePOSIX"
	}, err
}

// EscapeOnce uses the package-level table.
func EscapeOnce(s string) string { return _escaper.Replace(s) + _digits.String() }

// Replace builds a table from its arguments, which differ per call.
func Replace(s, from, to string) string {
	return strings.NewReplacer(from, to).Replace(s)
}

// Pattern compiles a caller-supplied pattern.
func Pattern(p string) (*regexp.Regexp, error) { return regexp.Compile(p) }

var _once *regexp.Regexp

func init() { _once = regexp.MustCompile("once") }

// Sanctioned carries a reasoned suppression.
func Sanctioned() *regexp.Regexp {
	//cblint:ignore hotalloc fixture: a sanctioned per-call build
	return regexp.MustCompile("z")
}
