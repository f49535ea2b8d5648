package minijs

import (
	"strings"

	"crawlerbox/internal/memo"
)

// Phishing kits reuse the same scripts across thousands of pages, so
// Interp.Eval takes its Program from a process-wide cache keyed by the
// source text. A Program is immutable once Parse returns it: the
// interpreter reads the syntax tree and never writes a node, so one cached
// Program runs in any number of interpreters on any number of goroutines.
// Parse errors are cached as well, so a kit that ships the same broken
// script to every victim costs one parse, and the cached entry answers with
// exactly the error a fresh Parse returns. Parse itself stays uncached.
//
// The cache is bounded by two constants, whatever the input: at most
// programCacheEntries programs, holding at most programCacheBytes of
// source. A source over programCacheMaxSource bytes is parsed but never
// cached, so one huge script cannot flush the rest. When an insert would
// pass either cap, the oldest entries go first.
//
// On the seed-42 corpus at scale 1, one pass evaluates 4,814 sources, 963
// of them distinct. 128 entries serve 3,817 of them from the cache, against
// 3,851 with room for every source; 256 entries would add 17 hits and
// double the 331 KB the full cache holds on the heap (amd64, Go 1.24). The
// syntax trees there take 4.7 bytes per source byte, so at the byte cap
// the cache would hold about 12 MB.
const (
	programCacheEntries   = 128
	programCacheBytes     = 2 << 20
	programCacheMaxSource = programCacheBytes / 8
)

// cachedProgram is one parse outcome: a Program or the error Parse gave.
type cachedProgram struct {
	prog *Program
	err  error
}

// _programs maps source text to its parse outcome. An entry matches only
// an identical source, compared in full.
var _programs = memo.Strings[cachedProgram](programCacheEntries, programCacheBytes)

// compile returns the parse outcome for src, parsing it only on a miss.
func compile(src string) (*Program, error) {
	h := _programs.Hash(src)
	if e, ok := _programs.Get(h, src); ok {
		return e.prog, e.err
	}
	if len(src) > programCacheMaxSource {
		return Parse(src)
	}
	// The source may be a slice of a whole HTML document, and the syntax
	// tree keeps slices of the source it was parsed from. Parsing a clone
	// keeps the cache from pinning the document, and keeps the byte cap a
	// true count of the source the cache holds.
	src = strings.Clone(src)
	prog, err := Parse(src)
	_programs.Put(h, src, cachedProgram{prog: prog, err: err}, len(src))
	return prog, err
}
