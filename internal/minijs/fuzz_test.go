package minijs

import (
	"strings"
	"testing"
)

// _miniJSSeeds is FuzzMiniJS's seed corpus; FuzzBuiltinsOnDemand starts
// from it too. The seeds cover the constructs kits actually use:
// eval-free obfuscation, busy loops, exceptions, and the cloaking-style
// conditional redirect.
var _miniJSSeeds = []string{
	`var x = 1 + 2 * 3; x`,
	`function f(n) { return n < 2 ? 1 : f(n-1) + f(n-2); } f(10)`,
	`var s = ""; for (var i = 0; i < 10; i++) { s += String.fromCharCode(104 + i); } s`,
	`while (true) {}`,
	`try { null.x } catch (e) { "caught" }`,
	`if (navigator && navigator.webdriver) { location.href = "/bot"; }`,
	`throw "boom"`,
	`var o = {a: [1,2,3]}; o.a[1]`,
	`}{ not javascript ((`,
	``,
	// Regression: truncated constructs whose productions consume EOF and
	// read again — cur/next must keep returning EOF, not run off the
	// token slice.
	`do { x = 1 } while`,
	`x =>`,
	`switch (a) { case`,
	// Regression: unbounded recursion and deep nesting, which used to
	// overflow the Go stack.
	`function f(n){return f(n+1)} f(0)`,
	strings.Repeat("(", 2000) + "1" + strings.Repeat(")", 2000),
}

// FuzzMiniJS feeds the interpreter arbitrary source under a small fuel
// budget. The contract: parse errors and runtime errors are returned, never
// panicked, and the fuel bound guarantees termination — exactly what the
// browser relies on when running hostile phishing-kit scripts.
func FuzzMiniJS(f *testing.F) {
	for _, src := range _miniJSSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		ip := New(50_000)
		_, _ = ip.Eval(src)
		if ip.Fuel() > 50_000 {
			t.Fatalf("fuel grew during evaluation: %d", ip.Fuel())
		}
	})
}

// FuzzProgramCache is the differential test of the program cache: for any
// source, the cached parse and a fresh Parse both succeed or fail with the
// same error text, and two fresh interpreters, one running the cached
// program and one a freshly parsed program, return the same value or the
// same error.
func FuzzProgramCache(f *testing.F) {
	f.Add(sharedProgramSrc)
	f.Add(`var x = 1 + 2 * 3; x`)
	f.Add(`function f(n) { return n < 2 ? 1 : f(n-1) + f(n-2); } f(10)`)
	f.Add(`var a = [1]; a.push(a); a.join("-") + a`)
	f.Add(`JSON.parse("[[[1]]]")[0][0]`)
	f.Add(`throw "boom"`)
	f.Add(`while (true) {}`)
	f.Add(`}{ not javascript ((`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, src string) {
		cached, cerr := compile(src)
		fresh, ferr := Parse(src)
		if (cerr == nil) != (ferr == nil) || cerr != nil && cerr.Error() != ferr.Error() {
			t.Fatalf("cached parse error %v, fresh parse error %v", cerr, ferr)
		}
		if ferr != nil {
			return
		}
		cv, cerr := New(50_000).eval(cached)
		fv, ferr := New(50_000).eval(fresh)
		if (cerr == nil) != (ferr == nil) || cerr != nil && cerr.Error() != ferr.Error() {
			t.Fatalf("cached program error %v, fresh program error %v", cerr, ferr)
		}
		if cv.TypeOf() != fv.TypeOf() || cv.ToString() != fv.ToString() {
			t.Fatalf("cached program = %s %q, fresh program = %s %q",
				cv.TypeOf(), cv.ToString(), fv.TypeOf(), fv.ToString())
		}
	})
}

// FuzzBuiltinsOnDemand is the differential test of globals built on first
// use: a script run by an interpreter that has every builtin and embedder
// global installed up front and by one that builds each when a lookup
// first names it (the builtins from _builtins, the embedder's through
// Resolve) returns the same value or error text and leaves the same fuel.
// The extra seeds probe what building late could change: typeof,
// identity, implicit-global assignment, and var and function shadowing of
// builtin and embedder names.
func FuzzBuiltinsOnDemand(f *testing.F) {
	for _, src := range _miniJSSeeds {
		f.Add(src)
	}
	for _, src := range []string{
		`typeof Math + typeof JSON + typeof parseInt + typeof nope + typeof globalThis`,
		`Math === Math && JSON !== Math && String.fromCharCode === String.fromCharCode`,
		`var m = Math; Math = 1; m.floor(2.5) + Math`,
		`JSON = null; typeof JSON`,
		`var Date = 5; Date`,
		`function Array() { return 7 } Array()`,
		`function f() { return Object } f() === Object`,
		`function g() { var RegExp = 2; return RegExp } g() + typeof RegExp`,
		`(function () { parseFloat = isNaN })(); parseFloat("x")`,
		`try { new TypeError("bad") } catch (e) { e }`,
		`var e = new RangeError("r"); e.name + ":" + e.message`,
		`[NaN === NaN, isFinite(Infinity), atob(btoa("x")), decodeURIComponent(encodeURIComponent("a b"))]`,
		`new Date().getTimezoneOffset() + Date.now()`,
		`new RegExp("^a+$", "i").test("AAA")`,
		`Array.isArray(Array.from("abc")) && Object.keys({a: 1}).length`,
		`Boolean(Number("3")) && String(12)`,
		`missing + 1`,
		`typeof nav + typeof win + typeof hook + typeof Math`,
		`win.nav === nav && hook === hook`,
		`nav = 1; win.nav.webdriver + nav`,
		`var win; typeof win + typeof nav`,
		`function f() { return hook(1, 2, 3) } f() + win.width`,
		`for (var k in win) { nav[k] = 1 } JSON.stringify(nav)`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		eager := eagerInterp(50_000, false)
		lazy, _ := lazyInterp(50_000, false)
		ev, eerr := eager.Eval(src)
		lv, lerr := lazy.Eval(src)
		if (eerr == nil) != (lerr == nil) || eerr != nil && eerr.Error() != lerr.Error() {
			t.Fatalf("installed builtins: error %v; built on demand: error %v", eerr, lerr)
		}
		if ev.TypeOf() != lv.TypeOf() || ev.ToString() != lv.ToString() {
			t.Fatalf("installed builtins = %s %q; built on demand = %s %q",
				ev.TypeOf(), ev.ToString(), lv.TypeOf(), lv.ToString())
		}
		if eager.Fuel() != lazy.Fuel() {
			t.Fatalf("installed builtins left %d fuel; built on demand left %d", eager.Fuel(), lazy.Fuel())
		}
	})
}
