package minijs

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// The two hostile-input probes below used to end in a fatal Go stack
// overflow, which no recover can catch: one kit script would take down the
// analysis process. Both must now return an error, and quickly. The bounds
// must also stay far enough out that scripts a browser runs still run here;
// otherwise a kit could hide its payload behind a deep recursion.

func TestUnboundedRecursionReturnsCallDepthError(t *testing.T) {
	ip := New(0)
	_, err := ip.Eval(`function f(n){return f(n+1)} f(0)`)
	if !errors.Is(err, ErrCallDepth) {
		t.Fatalf("err = %v, want ErrCallDepth", err)
	}
}

func TestCallDepthErrorNotCatchableByScript(t *testing.T) {
	ip := New(0)
	_, err := ip.Eval(`function f(n){return f(n+1)} try { f(0) } catch (e) { "swallowed" }`)
	if !errors.Is(err, ErrCallDepth) {
		t.Fatalf("err = %v, want ErrCallDepth despite try/catch", err)
	}
}

// Each call of this recursion sits ten additions deep, so a bound that
// counted calls alone would let its Go stack grow ten times faster.
func TestCallDepthCountsExpressionsInsideEachCall(t *testing.T) {
	body := strings.Repeat("1+(", 10) + "f(n+1)" + strings.Repeat(")", 10)
	_, err := New(0).Eval(`function f(n){return ` + body + `} f(0)`)
	if !errors.Is(err, ErrCallDepth) {
		t.Fatalf("err = %v, want ErrCallDepth", err)
	}
}

func TestCallDepthBoundLeavesBrowserScaleRecursionAlone(t *testing.T) {
	ip := New(0)
	for _, n := range []int{1_000, 10_000} {
		v, err := ip.Eval(fmt.Sprintf(`function f(n){return n == 0 ? 0 : 1 + f(n-1)} f(%d)`, n))
		if err != nil {
			t.Fatalf("f(%d): %v", n, err)
		}
		if v.ToString() != fmt.Sprint(n) {
			t.Errorf("f(%d) = %s", n, v.ToString())
		}
	}
	// The bound is per call stack, not per run: unwinding frees it.
	if _, err := ip.Eval(`f(10000)`); err != nil {
		t.Fatalf("second deep call: %v", err)
	}
	// A kit that recurses before it renders still renders.
	v, err := New(0).Eval(`function g(n){return n?g(n-1):0} g(1000); "form shown"`)
	if err != nil || v.ToString() != "form shown" {
		t.Fatalf("payload after g(1000) = %q, %v", v.ToString(), err)
	}
}

// Expressions nest without bound only through calls: a long left-deep
// chain, such as a payload concatenated from many pieces, parses in a loop
// and evaluates without a call, so the bound never refuses it.
func TestCallDepthBoundLeavesLongChainsAlone(t *testing.T) {
	const n = maxEvalDepth + 1_000
	v, err := New(0).Eval(strings.Repeat("1+", n) + "1")
	if err != nil {
		t.Fatal(err)
	}
	if v.ToString() != fmt.Sprint(n+1) {
		t.Errorf("sum = %s, want %d", v.ToString(), n+1)
	}
}

func TestDeeplyNestedParenthesesReturnNestingError(t *testing.T) {
	const n = 200_000
	src := strings.Repeat("(", n) + "1" + strings.Repeat(")", n)
	_, err := Parse(src)
	if !errors.Is(err, ErrNestingDepth) {
		t.Fatalf("err = %v, want ErrNestingDepth", err)
	}
}

func TestNestingBoundCoversEveryRecursiveProduction(t *testing.T) {
	// Every repetition below costs at least one level.
	const n = maxNestingDepth + 1
	for name, src := range map[string]string{
		"blocks":      strings.Repeat("{", n) + strings.Repeat("}", n),
		"if chain":    strings.Repeat("if (1) ", n) + "x;",
		"unary":       strings.Repeat("!", n) + "x",
		"assignments": strings.Repeat("a = ", n) + "1",
		"arrays":      strings.Repeat("[", n) + strings.Repeat("]", n),
		"new chain":   strings.Repeat("new ", n) + "X",
		"functions":   strings.Repeat("x = function(){ ", n) + strings.Repeat("}", n),
	} {
		if _, err := Parse(src); !errors.Is(err, ErrNestingDepth) {
			t.Errorf("%s: err = %v, want ErrNestingDepth", name, err)
		}
	}
}

func TestNestingBoundLeavesDeepNestingAlone(t *testing.T) {
	for _, n := range []int{500, 7_000} {
		for src, want := range map[string]string{
			strings.Repeat("(", n) + "1" + strings.Repeat(")", n):                                "1",
			strings.Repeat("[", n) + "7" + strings.Repeat("]", n) + ".length":                    "1",
			strings.Repeat("-(", n) + "1" + strings.Repeat(")", n) + " + 0":                      fmt.Sprint(1 - 2*(n%2)),
			"var x = " + strings.Repeat("{a: ", n) + "2" + strings.Repeat("}", n) + "; typeof x": "object",
		} {
			v, err := New(0).Eval(src)
			if err != nil || v.ToString() != want {
				t.Errorf("%.12s... nested %d deep = %q, %v; want %q", src, n, v.ToString(), err, want)
			}
		}
	}
	if v := evalStr(t, `var f = (a, b) => a + b; f("x", "y")`); v != "xy" {
		t.Errorf("arrow with parameter list = %q", v)
	}
	if v := evalStr(t, `var g = () => "z"; g()`); v != "z" {
		t.Errorf("arrow without parameters = %q", v)
	}
}

// An array that contains itself used to recurse through ToString until the
// Go stack overflowed. Browsers render the inner occurrence as "".
func TestCyclicArrayJoinsAsBrowsersDo(t *testing.T) {
	for src, want := range map[string]string{
		`var a = [1]; a.push(a); "" + a`:                           "1,",
		`var a = [1]; a.push(a); a.join(",")`:                      "1,",
		`var a = [1]; a.push(a); a.join("-")`:                      "1-",
		`var a = [1]; a.push(a); String(a)`:                        "1,",
		`var a = [1], b = [a, 2]; a.push(b); "" + a`:               "1,,2",
		`var a = [1]; a.push([a, a]); a.join("|")`:                 "1|,",
		`var a = [1]; a.push(a); ("" + a) + ("" + a)`:              "1,1,",
		`var a = [1]; a.push(a); var s = "" + a; [a, a].join(";")`: "1,;1,",
	} {
		if got := evalStr(t, src); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

// JSON.parse recursed once per nesting level without bound: two million
// '[' overflowed the Go stack. The input is built in Go, since a script
// could not build it under its fuel budget.
func TestDeepJSONParseThrowsCatchableSyntaxError(t *testing.T) {
	ip := New(0)
	ip.SetGlobal("s", String(strings.Repeat("[", 2_000_000)))
	v, err := ip.Eval(`var r; try { JSON.parse(s); r = "parsed" } catch (e) { r = e.name + ": " + e.message } r`)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.ToString(); got != "SyntaxError: JSON.parse: nesting too deep" {
		t.Errorf("JSON.parse of 2,000,000 '[' = %q", got)
	}
}

func TestJSONParseDepthBoundLeavesDeepDocumentsAlone(t *testing.T) {
	const n = maxJSONDepth
	ip := New(0)
	ip.SetGlobal("s", String(strings.Repeat("[", n-1)+"[7]"+strings.Repeat("]", n-1)))
	v, err := ip.Eval(`var x = JSON.parse(s); var d = 0; while (typeof x === "object") { x = x[0]; d++ } d + ":" + x`)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := v.ToString(), fmt.Sprintf("%d:7", n); got != want {
		t.Errorf("JSON.parse nested %d deep = %q, want %q", n, got, want)
	}
	// One level past the bound is refused, objects and arrays alike.
	ip.SetGlobal("s", String(strings.Repeat(`{"a":`, n)+"[]"+strings.Repeat("}", n)))
	if _, err := ip.Eval(`JSON.parse(s)`); err == nil || !strings.Contains(err.Error(), "nesting too deep") {
		t.Errorf("JSON nested %d deep: err = %v, want the nesting SyntaxError", n+1, err)
	}
}
