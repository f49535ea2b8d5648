package minijs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// The cache hands one Program to every interpreter on every worker, which
// is sound only while the interpreter never writes a syntax-tree node. The
// script below exercises closures, hoisted and recursive functions,
// arrows, loops, exceptions and host callbacks; run under -race, any write
// to the shared tree is reported.
const sharedProgramSrc = `
function counter(step) { var n = 0; return function () { n += step; return n; }; }
function fact(n) { return n < 2 ? 1 : n * fact(n - 1); }
var a = counter(1), b = counter(3), out = [];
for (var i = 0; i < 40; i++) { out.push(a() * 2 + b()); }
var sq = [1, 2, 3, 4].map(function (x) { return x * x; });
var add = (x, y) => x + y;
var caught = "";
try { null.x } catch (e) { caught = e.name; }
var keys = [];
for (var k in {z: 1, y: 2}) { keys.push(k); }
switch (out.length) { case 40: caught += "!"; break; default: caught += "?"; }
out.join(",") + "|" + sq.join(",") + "|" + add("p", fact(10)) + "|" + caught + "|" + keys.join("") + "|" + JSON.stringify({s: sq})
`

func TestCachedProgramRunsOnManyGoroutines(t *testing.T) {
	want, err := New(0).Eval(sharedProgramSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compile(sharedProgramSrc)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := compile(sharedProgramSrc); again != prog {
		t.Fatal("the second compile of a source parsed it again")
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				got, err := New(0).eval(prog)
				if err != nil || got.ToString() != want.ToString() {
					errs <- fmt.Sprintf("run %d = %q, %v; want %q", i, got.ToString(), err, want.ToString())
					return
				}
				// Hits and inserts from every goroutine at once.
				src := fmt.Sprintf("var g = %d; g * 2", 100*g+i)
				if v, err := New(0).Eval(src); err != nil || v.ToString() != fmt.Sprint(2*(100*g+i)) {
					errs <- fmt.Sprintf("%s = %q, %v", src, v.ToString(), err)
					return
				}
				if v, err := New(0).Eval(sharedProgramSrc); err != nil || v.ToString() != want.ToString() {
					errs <- fmt.Sprintf("Eval of the shared source = %q, %v", v.ToString(), err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// cached returns the cache's entry for src.
func cached(src string) (cachedProgram, bool) { return _programs.Get(_programs.Hash(src), src) }

func TestProgramCacheCachesParseErrors(t *testing.T) {
	src := "var x = ((1 + ;"
	_, want := Parse(src)
	if want == nil {
		t.Fatal("source parses; the test needs a syntax error")
	}
	for i := 0; i < 2; i++ {
		if _, err := compile(src); err == nil || err.Error() != want.Error() {
			t.Fatalf("compile %d: err = %v, want %v", i, err, want)
		}
	}
	if e, ok := cached(src); !ok || e.err == nil {
		t.Error("the parse error was not cached")
	}
}

// Distinct sources without end, such as a daemon fed kit after kit, must
// leave the cache within both caps, and a source over the per-entry limit
// is parsed but never cached. The memo's own tests pin FIFO order and the
// byte budget; this pins the limits the cache gives it.
func TestProgramCacheStaysWithinCaps(t *testing.T) {
	for i := 0; i < 10*programCacheEntries; i++ {
		if _, err := compile(fmt.Sprintf("var v%d = %d;", i, i)); err != nil {
			t.Fatal(err)
		}
		if n := _programs.Len(); n > programCacheEntries {
			t.Fatalf("cache holds %d entries, cap %d", n, programCacheEntries)
		}
	}
	if n := _programs.Len(); n != programCacheEntries {
		t.Errorf("small sources fill %d entries, want %d", n, programCacheEntries)
	}
	// The newest sources stay; the oldest went first.
	if _, ok := cached(fmt.Sprintf("var v%d = %d;", 10*programCacheEntries-1, 10*programCacheEntries-1)); !ok {
		t.Error("the newest source was evicted")
	}
	if _, ok := cached("var v0 = 0;"); ok {
		t.Error("the oldest source survived")
	}

	// Large sources hit the byte cap long before the entry cap.
	pad := strings.Repeat("x", programCacheMaxSource-32)
	fits := programCacheBytes / programCacheMaxSource
	for i := 0; i < 10*fits; i++ {
		if _, err := compile(fmt.Sprintf("// %s\nvar v = %d;", pad, i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := _programs.Len(); n != fits {
		t.Errorf("large sources fill %d entries, want %d", n, fits)
	}

	// A source over the per-entry limit runs but is never cached.
	huge := "// " + strings.Repeat("x", programCacheMaxSource) + "\n1"
	if _, err := compile(huge); err != nil {
		t.Fatal(err)
	}
	if _, ok := cached(huge); ok {
		t.Error("a source over the per-entry limit was cached")
	}
	if n := _programs.Len(); n != fits {
		t.Errorf("caching nothing changed the entries from %d to %d", fits, n)
	}
}
