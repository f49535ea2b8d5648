package minijs

import (
	"strings"
	"testing"
)

// FuzzMiniJS feeds the interpreter arbitrary source under a small fuel
// budget. The contract: parse errors and runtime errors are returned, never
// panicked, and the fuel bound guarantees termination — exactly what the
// browser relies on when running hostile phishing-kit scripts. The seeds
// cover the constructs kits actually use: eval-free obfuscation, busy
// loops, exceptions, and the cloaking-style conditional redirect.
func FuzzMiniJS(f *testing.F) {
	f.Add(`var x = 1 + 2 * 3; x`)
	f.Add(`function f(n) { return n < 2 ? 1 : f(n-1) + f(n-2); } f(10)`)
	f.Add(`var s = ""; for (var i = 0; i < 10; i++) { s += String.fromCharCode(104 + i); } s`)
	f.Add(`while (true) {}`)
	f.Add(`try { null.x } catch (e) { "caught" }`)
	f.Add(`if (navigator && navigator.webdriver) { location.href = "/bot"; }`)
	f.Add(`throw "boom"`)
	f.Add(`var o = {a: [1,2,3]}; o.a[1]`)
	f.Add(`}{ not javascript ((`)
	f.Add(``)
	// Regression: truncated constructs whose productions consume EOF and
	// read again — cur/next must keep returning EOF, not run off the
	// token slice.
	f.Add(`do { x = 1 } while`)
	f.Add(`x =>`)
	f.Add(`switch (a) { case`)
	// Regression: unbounded recursion and deep nesting, which used to
	// overflow the Go stack.
	f.Add(`function f(n){return f(n+1)} f(0)`)
	f.Add(strings.Repeat("(", 2000) + "1" + strings.Repeat(")", 2000))
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
		cached, cerr := _programs.compile(src)
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
