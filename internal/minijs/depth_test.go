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
