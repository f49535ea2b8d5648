package minijs

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// evalNum runs src and requires a numeric result.
func evalNum(t *testing.T, src string) float64 {
	t.Helper()
	v, err := New(0).Eval(src)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	if v.Kind() != KindNumber {
		t.Fatalf("Eval(%q) = %s (kind %d), want number", src, v.ToString(), v.Kind())
	}
	return v.ToNumber()
}

func evalStr(t *testing.T, src string) string {
	t.Helper()
	v, err := New(0).Eval(src)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return v.ToString()
}

func TestArithmetic(t *testing.T) {
	tests := []struct {
		src  string
		want float64
	}{
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"10 / 4", 2.5},
		{"10 % 3", 1},
		{"2 * -3", -6},
		{"1 + 2 + 3 + 4", 10},
		{"0x10 + 1", 17},
		{"1.5e2", 150},
		{"7 & 3", 3},
		{"4 | 1", 5},
		{"5 ^ 1", 4},
		{"1 << 4", 16},
		{"-8 >> 1", -4},
		{"~0", -1},
	}
	for _, tt := range tests {
		if got := evalNum(t, tt.src); got != tt.want {
			t.Errorf("%q = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestStringOps(t *testing.T) {
	tests := []struct {
		src  string
		want string
	}{
		{`"a" + "b"`, "ab"},
		{`"n=" + 42`, "n=42"},
		{`"HeLLo".toLowerCase()`, "hello"},
		{`"hello".toUpperCase()`, "HELLO"},
		{`"hello world".indexOf("world") + ""`, "6"},
		{`"hello".slice(1, 3)`, "el"},
		{`"hello".slice(-3)`, "llo"},
		{`"hello".substring(3, 1)`, "el"},
		{`"a,b,c".split(",").join("|")`, "a|b|c"},
		{`"  pad  ".trim()`, "pad"},
		{`"abc".charAt(1)`, "b"},
		{`"xyx".replace("x", "o")`, "oyx"},
		{`"xyx".replaceAll("x", "o")`, "oyo"},
		{`"ab".repeat(3)`, "ababab"},
		{`"test".length + ""`, "4"},
		{`"evil".includes("vi") + ""`, "true"},
		{`"https://x".startsWith("https") + ""`, "true"},
	}
	for _, tt := range tests {
		if got := evalStr(t, tt.src); got != tt.want {
			t.Errorf("%q = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestVariablesAndScope(t *testing.T) {
	src := `
	var x = 1;
	let y = 2;
	const z = 3;
	{
		let y = 20;
		x = x + y;
	}
	x + y + z
	`
	if got := evalNum(t, src); got != 26 {
		t.Errorf("scope result = %v, want 26", got)
	}
}

func TestFunctionsAndClosures(t *testing.T) {
	src := `
	function makeCounter() {
		var n = 0;
		return function() { n = n + 1; return n; };
	}
	var c1 = makeCounter();
	var c2 = makeCounter();
	c1(); c1(); c2();
	c1() * 10 + c2()
	`
	if got := evalNum(t, src); got != 32 {
		t.Errorf("closures = %v, want 32", got)
	}
}

func TestArrowFunctions(t *testing.T) {
	src := `
	var add = (a, b) => a + b;
	var double = x => x * 2;
	var block = (x) => { return x + 1; };
	add(1, 2) + double(10) + block(4)
	`
	if got := evalNum(t, src); got != 28 {
		t.Errorf("arrows = %v, want 28", got)
	}
}

func TestRecursion(t *testing.T) {
	src := `
	function fib(n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
	fib(12)
	`
	if got := evalNum(t, src); got != 144 {
		t.Errorf("fib(12) = %v, want 144", got)
	}
}

func TestControlFlow(t *testing.T) {
	src := `
	var total = 0;
	for (var i = 0; i < 10; i++) {
		if (i % 2 === 0) continue;
		if (i > 7) break;
		total += i;
	}
	var j = 0;
	while (j < 5) { j++; }
	var k = 0;
	do { k++; } while (k < 3);
	total * 100 + j * 10 + k
	`
	// odds <= 7: 1+3+5+7 = 16
	if got := evalNum(t, src); got != 1653 {
		t.Errorf("control flow = %v, want 1653", got)
	}
}

func TestForInAndForOf(t *testing.T) {
	src := `
	var obj = {a: 1, b: 2, c: 3};
	var keys = "";
	for (var k in obj) { keys += k; }
	var sum = 0;
	for (var v of [10, 20, 30]) { sum += v; }
	keys + ":" + sum
	`
	if got := evalStr(t, src); got != "abc:60" {
		t.Errorf("for-in/of = %q", got)
	}
}

func TestObjectsAndArrays(t *testing.T) {
	src := `
	var o = {name: "kit", nested: {deep: 42}};
	o.extra = [1, 2, 3];
	o.extra.push(4);
	o.nested.deep + o.extra.length + o.extra[3]
	`
	if got := evalNum(t, src); got != 50 {
		t.Errorf("objects = %v, want 50", got)
	}
}

func TestArrayMethods(t *testing.T) {
	tests := []struct {
		src  string
		want string
	}{
		{`[3,1,2].indexOf(2) + ""`, "2"},
		{`[1,2,3].includes(2) + ""`, "true"},
		{`[1,2,3,4].slice(1,3).join("-")`, "2-3"},
		{`[1,2].concat([3,4]).join("")`, "1234"},
		{`[1,2,3].map(function(x){return x*x;}).join(",")`, "1,4,9"},
		{`[1,2,3,4].filter(x => x % 2 === 0).join(",")`, "2,4"},
		{`[1,2,3].reverse().join("")`, "321"},
		{`var a=[1]; a.pop() + a.length`, "1"},
		{`var a=[5,6]; a.shift() + "," + a.join("")`, "5,6"},
	}
	for _, tt := range tests {
		if got := evalStr(t, tt.src); got != tt.want {
			t.Errorf("%q = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestEqualityAndTypeof(t *testing.T) {
	tests := []struct {
		src  string
		want string
	}{
		{`(1 == "1") + ""`, "true"},
		{`(1 === "1") + ""`, "false"},
		{`(null == undefined) + ""`, "true"},
		{`(null === undefined) + ""`, "false"},
		{`typeof 1`, "number"},
		{`typeof "x"`, "string"},
		{`typeof true`, "boolean"},
		{`typeof undefined`, "undefined"},
		{`typeof null`, "object"},
		{`typeof {}`, "object"},
		{`typeof function(){}`, "function"},
		{`typeof neverDeclared`, "undefined"},
	}
	for _, tt := range tests {
		if got := evalStr(t, tt.src); got != tt.want {
			t.Errorf("%q = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestTernaryAndLogical(t *testing.T) {
	tests := []struct {
		src  string
		want string
	}{
		{`1 ? "yes" : "no"`, "yes"},
		{`0 ? "yes" : "no"`, "no"},
		{`"" || "fallback"`, "fallback"},
		{`"set" || "fallback"`, "set"},
		{`1 && 2 + ""`, "2"},
		{`0 && neverEvaluated()`, "0"},
		{`null ?? "default"`, "default"},
		{`"" ?? "default"`, ""},
	}
	for _, tt := range tests {
		if got := evalStr(t, tt.src); got != tt.want {
			t.Errorf("%q = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestTryCatchFinallyThrow(t *testing.T) {
	src := `
	var log = "";
	try {
		log += "t";
		throw new Error("boom");
	} catch (e) {
		log += "c:" + e.message;
	} finally {
		log += ":f";
	}
	log
	`
	if got := evalStr(t, src); got != "tc:boom:f" {
		t.Errorf("try/catch = %q", got)
	}
}

func TestUncaughtThrowSurfacesAsError(t *testing.T) {
	_, err := New(0).Eval(`throw new TypeError("nope");`)
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("uncaught throw err = %v", err)
	}
}

func TestRuntimeTypeErrorsCatchable(t *testing.T) {
	src := `
	var caught = "";
	try { undefinedVariable.property; } catch (e) { caught = e.name; }
	caught
	`
	if got := evalStr(t, src); got != "ReferenceError" {
		t.Errorf("caught = %q, want ReferenceError", got)
	}
	src = `
	var caught = "";
	try { null.x; } catch (e) { caught = e.name; }
	caught
	`
	if got := evalStr(t, src); got != "TypeError" {
		t.Errorf("caught = %q, want TypeError", got)
	}
}

func TestFuelExhaustionOnInfiniteLoop(t *testing.T) {
	ip := New(50_000)
	_, err := ip.Eval(`while (true) { var x = 1; }`)
	if !errors.Is(err, ErrFuelExhausted) {
		t.Fatalf("err = %v, want ErrFuelExhausted", err)
	}
}

func TestFuelExhaustionNotCatchableByScript(t *testing.T) {
	// Hostile scripts must not be able to swallow the termination signal.
	ip := New(50_000)
	_, err := ip.Eval(`
	try {
		while (true) { var x = 1; }
	} catch (e) {
		"swallowed";
	}
	`)
	if !errors.Is(err, ErrFuelExhausted) {
		t.Fatalf("err = %v, want ErrFuelExhausted despite try/catch", err)
	}
}

// FuelSpent counts what evaluation consumed: it starts at zero, grows
// with every step and is not moved by an AddFuel grant.
func TestFuelSpentIgnoresGrants(t *testing.T) {
	ip := New(1_000)
	if got := ip.FuelSpent(); got != 0 {
		t.Fatalf("fresh interpreter spent %d", got)
	}
	if _, err := ip.Eval(`var x = 1; x = x + 1;`); err != nil {
		t.Fatal(err)
	}
	spent := ip.FuelSpent()
	if spent <= 0 || spent != 1_000-ip.Fuel() {
		t.Fatalf("spent %d with %d of 1000 left", spent, ip.Fuel())
	}
	ip.AddFuel(500)
	if got := ip.FuelSpent(); got != spent {
		t.Errorf("AddFuel moved FuelSpent from %d to %d", spent, got)
	}
}

func TestDebuggerHook(t *testing.T) {
	ip := New(0)
	var hits int
	ip.OnDebugger = func() { hits++ }
	if _, err := ip.Eval(`debugger; debugger;`); err != nil {
		t.Fatal(err)
	}
	if hits != 2 {
		t.Errorf("debugger hook hits = %d, want 2", hits)
	}
}

func TestAntiDebugTimerPattern(t *testing.T) {
	// The corpus pattern: record time, hit debugger, record time again,
	// and infer an attached debugger from the delta. With the virtual
	// clock the delta is 0 — NotABot-style analysis stays invisible.
	ip := New(0)
	src := `
	var t1 = Date.now();
	debugger;
	var t2 = Date.now();
	t2 - t1
	`
	v, err := ip.Eval(src)
	if err != nil {
		t.Fatal(err)
	}
	if v.ToNumber() != 0 {
		t.Errorf("debugger time delta = %v, want 0", v.ToNumber())
	}
}

func TestAtobObfuscationPattern(t *testing.T) {
	// Base64-obfuscated redirect payload, as seen on 167 pages in the
	// corpus (hue-rotate injector) and the victim-check scripts.
	src := `atob("aHR0cHM6Ly9ldmlsLXNpdGUuY29tL2xvZ2lu")`
	if got := evalStr(t, src); got != "https://evil-site.com/login" {
		t.Errorf("atob = %q", got)
	}
	if got := evalStr(t, `btoa("abc")`); got != "YWJj" {
		t.Errorf("btoa = %q", got)
	}
}

func TestAtobInvalidThrowsCatchable(t *testing.T) {
	src := `
	var r = "";
	try { atob("!!!"); } catch (e) { r = e.name; }
	r
	`
	if got := evalStr(t, src); got != "InvalidCharacterError" {
		t.Errorf("caught = %q", got)
	}
}

func TestConsoleHijackPattern(t *testing.T) {
	// Scripts in the corpus reassign console.log to block analysis. The
	// interpreter must let the reassignment take effect.
	ip := New(0)
	var logged []string
	console := NewObject()
	console.Set("log", NewHostFunc(func(_ *Interp, _ Value, args []Value) (Value, error) {
		for _, a := range args {
			logged = append(logged, a.ToString())
		}
		return Undefined, nil
	}))
	ip.SetGlobal("console", ObjectValue(console))
	src := `
	console.log("before");
	console.log = function() { return undefined; };
	console.log("after");
	`
	if _, err := ip.Eval(src); err != nil {
		t.Fatal(err)
	}
	if len(logged) != 1 || logged[0] != "before" {
		t.Errorf("logged = %v, want only 'before' (hijack must stick)", logged)
	}
}

func TestRegExpEmailValidation(t *testing.T) {
	// The victim-tracking scripts validate email addresses with a regex
	// before phoning home.
	src := `
	var re = new RegExp("^[a-z0-9._%+-]+@[a-z0-9.-]+\\.[a-z]{2,}$", "i");
	var a = re.test("Victim.Name@Corp.example");
	var b = re.test("not an email");
	(a ? "1" : "0") + (b ? "1" : "0")
	`
	if got := evalStr(t, src); got != "10" {
		t.Errorf("regex validation = %q, want \"10\"", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	src := `
	var payload = {ip: "203.0.113.9", country: "FR", ua: "Mozilla/5.0", n: 3, ok: true, tags: ["a", "b"]};
	var s = JSON.stringify(payload);
	var back = JSON.parse(s);
	back.ip + "|" + back.country + "|" + back.n + "|" + back.tags[1]
	`
	if got := evalStr(t, src); got != "203.0.113.9|FR|3|b" {
		t.Errorf("JSON round trip = %q", got)
	}
}

func TestJSONParseInvalid(t *testing.T) {
	src := `
	var r = "";
	try { JSON.parse("{bad json"); } catch (e) { r = e.name; }
	r
	`
	if got := evalStr(t, src); got != "SyntaxError" {
		t.Errorf("JSON.parse error = %q", got)
	}
}

func TestMathBuiltins(t *testing.T) {
	tests := []struct {
		src  string
		want float64
	}{
		{"Math.abs(-5)", 5},
		{"Math.floor(2.9)", 2},
		{"Math.ceil(2.1)", 3},
		{"Math.round(2.5)", 3},
		{"Math.max(1, 9, 4)", 9},
		{"Math.min(1, 9, 4)", 1},
		{"Math.pow(2, 10)", 1024},
		{"Math.sqrt(81)", 9},
	}
	for _, tt := range tests {
		if got := evalNum(t, tt.src); got != tt.want {
			t.Errorf("%q = %v, want %v", tt.src, got, tt.want)
		}
	}
	if r := evalNum(t, "Math.random()"); r != 0.5 {
		t.Errorf("default Math.random = %v, want deterministic 0.5", r)
	}
}

func TestParseIntAndFloat(t *testing.T) {
	tests := []struct {
		src  string
		want float64
	}{
		{`parseInt("42")`, 42},
		{`parseInt("42abc")`, 42},
		{`parseInt("ff", 16)`, 255},
		{`parseInt("-7")`, -7},
		{`parseFloat("3.14xyz")`, 3.14},
		{`parseFloat("-2.5")`, -2.5},
	}
	for _, tt := range tests {
		if got := evalNum(t, tt.src); got != tt.want {
			t.Errorf("%q = %v, want %v", tt.src, got, tt.want)
		}
	}
	if got := evalStr(t, `isNaN(parseInt("xyz")) + ""`); got != "true" {
		t.Errorf("parseInt(xyz) should be NaN")
	}
}

func TestHostInterop(t *testing.T) {
	ip := New(0)
	var captured string
	ip.SetGlobal("sendBeacon", NewHostFunc(func(_ *Interp, _ Value, args []Value) (Value, error) {
		if len(args) > 0 {
			captured = args[0].ToString()
		}
		return True, nil
	}))
	nav := NewObject()
	nav.Set("userAgent", String("Mozilla/5.0 (X11; Linux x86_64) Chrome/120"))
	nav.Set("webdriver", False)
	ip.SetGlobal("navigator", ObjectValue(nav))
	src := `
	if (navigator.webdriver === false && navigator.userAgent.indexOf("Chrome") >= 0) {
		sendBeacon("human:" + navigator.userAgent.length);
	}
	`
	if _, err := ip.Eval(src); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(captured, "human:") {
		t.Errorf("captured = %q", captured)
	}
}

func TestCallFunctionFromGo(t *testing.T) {
	ip := New(0)
	if _, err := ip.Eval(`function onEvent(x) { return x * 2 + 1; }`); err != nil {
		t.Fatal(err)
	}
	fn, ok := ip.Global("onEvent")
	if !ok {
		t.Fatal("onEvent not defined")
	}
	v, err := ip.CallFunction(fn, Undefined, []Value{Number(20)})
	if err != nil {
		t.Fatal(err)
	}
	if v.ToNumber() != 41 {
		t.Errorf("CallFunction = %v, want 41", v.ToNumber())
	}
}

func TestThisBindingInMethods(t *testing.T) {
	src := `
	var counter = {
		n: 0,
		bump: function() { this.n = this.n + 1; return this.n; }
	};
	counter.bump();
	counter.bump();
	counter.n
	`
	if got := evalNum(t, src); got != 2 {
		t.Errorf("this binding = %v, want 2", got)
	}
}

func TestNewConstructor(t *testing.T) {
	src := `
	function Point(x, y) { this.x = x; this.y = y; }
	var p = new Point(3, 4);
	Math.sqrt(p.x * p.x + p.y * p.y)
	`
	if got := evalNum(t, src); got != 5 {
		t.Errorf("new = %v, want 5", got)
	}
}

func TestUpdateAndCompoundAssign(t *testing.T) {
	src := `
	var i = 5;
	var a = i++;
	var b = ++i;
	var c = i--;
	i += 10;
	i *= 2;
	"" + a + b + c + ":" + i
	`
	if got := evalStr(t, src); got != "577:32" {
		t.Errorf("update ops = %q, want 577:32", got)
	}
}

func TestDeleteOperator(t *testing.T) {
	src := `
	var o = {a: 1, b: 2};
	delete o.a;
	("a" in o ? "y" : "n") + ("b" in o ? "y" : "n")
	`
	if got := evalStr(t, src); got != "ny" {
		t.Errorf("delete = %q, want ny", got)
	}
}

func TestSyntaxErrors(t *testing.T) {
	bad := []string{
		`var = 5;`,
		`function () {}`,
		`if (true {`,
		`"unterminated`,
		`1 +`,
		`{a: }`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestNumberFormatting(t *testing.T) {
	tests := []struct {
		src  string
		want string
	}{
		{`"" + 42`, "42"},
		{`"" + 2.5`, "2.5"},
		{`"" + (0.1 + 0.2)`, "0.30000000000000004"},
		{`"" + (1/0)`, "Infinity"},
		{`"" + (0/0)`, "NaN"},
		{`(123.456).toFixed(1)`, "123.5"},
		{`(255).toString(16)`, "ff"},
	}
	for _, tt := range tests {
		if got := evalStr(t, tt.src); got != tt.want {
			t.Errorf("%q = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestArithmeticCommutativityProperty(t *testing.T) {
	ip := New(0)
	f := func(a, b int16) bool {
		sa := Number(float64(a)).ToString()
		sb := Number(float64(b)).ToString()
		v1, err1 := ip.Eval("(" + sa + ") + (" + sb + ")")
		v2, err2 := ip.Eval("(" + sb + ") + (" + sa + ")")
		if err1 != nil || err2 != nil {
			return false
		}
		return v1.ToNumber() == v2.ToNumber()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestStringConcatMatchesGoProperty(t *testing.T) {
	ip := New(0)
	f := func(a, b uint8) bool {
		s1 := strings.Repeat("x", int(a%10))
		s2 := strings.Repeat("y", int(b%10))
		v, err := ip.Eval(`"` + s1 + `" + "` + s2 + `"`)
		if err != nil {
			return false
		}
		return v.ToString() == s1+s2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNaNComparisons(t *testing.T) {
	if got := evalStr(t, `(NaN < 1) + "," + (NaN > 1) + "," + (NaN === NaN)`); got != "false,false,false" {
		t.Errorf("NaN comparisons = %q", got)
	}
	if !math.IsNaN(evalNum(t, `NaN + 1`)) {
		t.Error("NaN + 1 should be NaN")
	}
}

func TestCommentsIgnored(t *testing.T) {
	src := `
	// line comment
	var x = 1; /* block
	comment */ var y = 2;
	x + y
	`
	if got := evalNum(t, src); got != 3 {
		t.Errorf("comments = %v", got)
	}
}

func TestVictimCheckScriptShape(t *testing.T) {
	// Condensed form of the obfuscated victim-tracking script shared by 38
	// domains in the corpus: extract the email from a tokenized URL hash,
	// validate it, and query the attacker's server synchronously.
	ip := New(0)
	var queried string
	ip.SetGlobal("syncCheck", NewHostFunc(func(_ *Interp, _ Value, args []Value) (Value, error) {
		if len(args) > 0 {
			queried = args[0].ToString()
		}
		return Bool(strings.Contains(queried, "victim@corp.example")), nil
	}))
	location := NewObject()
	location.Set("hash", String("#dmljdGltQGNvcnAuZXhhbXBsZQ==")) // base64 email
	ip.SetGlobal("location", ObjectValue(location))
	src := `
	var raw = location.hash.slice(1);
	var email = atob(raw);
	var re = new RegExp("^[a-zA-Z0-9._%+-]+@[a-zA-Z0-9.-]+$");
	var allowed = false;
	if (re.test(email)) {
		allowed = syncCheck("check?email=" + email);
	}
	allowed ? "show-phish" : "show-benign"
	`
	v, err := ip.Eval(src)
	if err != nil {
		t.Fatal(err)
	}
	if v.ToString() != "show-phish" {
		t.Errorf("victim check = %q, want show-phish", v.ToString())
	}
}

func TestSwitchStatement(t *testing.T) {
	tests := []struct {
		src  string
		want string
	}{
		{`
		var r = "";
		switch (2) {
		case 1: r = "one"; break;
		case 2: r = "two"; break;
		default: r = "other";
		}
		r`, "two"},
		{`
		var r = "";
		switch ("zz") {
		case "a": r = "a"; break;
		default: r = "default";
		}
		r`, "default"},
		{`
		var r = "";
		switch (1) {
		case 1: r += "one,";
		case 2: r += "two,"; break;
		case 3: r += "three,";
		}
		r`, "one,two,"}, // fall-through without break
		{`
		var r = "none";
		switch (9) {
		case 1: r = "one";
		}
		r`, "none"},
		{`
		var r = "";
		switch ("1") {
		case 1: r = "loose"; break;
		default: r = "strict";
		}
		r`, "strict"}, // switch uses strict comparison
	}
	for _, tt := range tests {
		if got := evalStr(t, tt.src); got != tt.want {
			t.Errorf("switch = %q, want %q (src: %s)", got, tt.want, tt.src)
		}
	}
}

func TestStringFromCharCode(t *testing.T) {
	// The classic obfuscation carrier: assemble a URL from char codes.
	src := `String.fromCharCode(104,116,116,112,115,58,47,47)`
	if got := evalStr(t, src); got != "https://" {
		t.Errorf("fromCharCode = %q", got)
	}
}

func TestObfuscatedKitScriptWithSwitchAndCharCodes(t *testing.T) {
	// The shape of a real kit dispatcher: mode selection via switch plus a
	// char-code-assembled host fragment.
	src := `
	function buildTarget(mode) {
		var scheme = String.fromCharCode(104,116,116,112,115,58,47,47);
		var host = "";
		switch (mode) {
		case "m":
			host = "mobile." + atob("ZXZpbC5leGFtcGxl");
			break;
		case "d":
			host = atob("ZXZpbC5leGFtcGxl");
			break;
		default:
			host = "decoy.example";
		}
		return scheme + host + "/login";
	}
	buildTarget("d")
	`
	if got := evalStr(t, src); got != "https://evil.example/login" {
		t.Errorf("kit dispatcher = %q", got)
	}
}

func TestMoreBuiltins(t *testing.T) {
	tests := []struct {
		src  string
		want string
	}{
		{`isFinite(1) + "," + isFinite(1/0) + "," + isFinite("x")`, "true,false,false"},
		{`encodeURIComponent("a b&c")`, "a+b%26c"},
		{`decodeURIComponent("a%20b")`, "a b"},
		{`Object.keys({b:1,a:2}).join(",")`, "a,b"},
		{`Object.values({a:1,b:2}).join(",")`, "1,2"},
		{`var o={a:1}; Object.assign(o,{b:2},{c:3}); Object.keys(o).join("")`, "abc"},
		{`Array.isArray([1]) + "," + Array.isArray("no")`, "true,false"},
		{`Array.from("abc").join("-")`, "a-b-c"},
		{`Array.from([1,2]).length + ""`, "2"},
		{`Array(3).length + ""`, "3"},
		{`Math.sign(-5) + "," + Math.sign(0) + "," + Math.sign(9)`, "-1,0,1"},
		{`Math.trunc(2.9) + "," + Math.trunc(-2.9)`, "2,-2"},
		{`Boolean("") + "," + Boolean("x")`, "false,true"},
		{`Number("42") + 1 + ""`, "43"},
		{`String(12.5)`, "12.5"},
	}
	for _, tt := range tests {
		if got := evalStr(t, tt.src); got != tt.want {
			t.Errorf("%q = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestMoreStringMethods(t *testing.T) {
	tests := []struct {
		src  string
		want string
	}{
		{`"abcabc".lastIndexOf("b") + ""`, "4"},
		{`"hello".substr(1, 3)`, "ell"},
		{`"hello".substr(-3)`, "llo"},
		{`"7".padStart(3, "0")`, "007"},
		{`"https://x".endsWith("x") + ""`, "true"},
		{`"A".charCodeAt(0) + ""`, "65"},
		{`"a".concat("b", "c")`, "abc"},
		{`"abc"[1]`, "b"},
		{`"abc".toString()`, "abc"},
		{`"x".charCodeAt(9) + ""`, "NaN"},
		{`"hi".charAt(5)`, ""},
	}
	for _, tt := range tests {
		if got := evalStr(t, tt.src); got != tt.want {
			t.Errorf("%q = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestOperatorsAndCoercions(t *testing.T) {
	tests := []struct {
		src  string
		want string
	}{
		{`var x = (1, 2, 3); x + ""`, "3"}, // comma operator
		{`void 42 + ""`, "undefined"},
		{`5 & 3 | 8 ^ 1`, "9"},
		{`var a = 6; a &= 3; a |= 8; a + ""`, "10"},
		{`"b" in {a:1,b:2} ? "y" : "n"`, "y"},
		{`"z" in {a:1} ? "y" : "n"`, "n"},
		{`[1,2] + ""`, "1,2"},
		{`({}) + ""`, "[object Object]"},
		{`(null == 0) + ""`, "false"},
		{`("5" == 5) + ""`, "true"},
		{`("abc" < "abd") + ""`, "true"},
		{`(2 >>> 1) + ""`, "1"},
		{`(-1 >>> 28) + ""`, "15"},
	}
	for _, tt := range tests {
		if got := evalStr(t, tt.src); got != tt.want {
			t.Errorf("%q = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestInstanceofErrorValues(t *testing.T) {
	src := `
	var r = "";
	try { throw new RangeError("r"); } catch (e) {
		r = (e instanceof Error) + "," + ({} instanceof Error);
	}
	r`
	if got := evalStr(t, src); got != "true,false" {
		t.Errorf("instanceof = %q", got)
	}
}

func TestJSONEdgeCases(t *testing.T) {
	tests := []struct {
		src  string
		want string
	}{
		{`JSON.stringify([1,[2,[3]]])`, "[1,[2,[3]]]"},
		{`JSON.stringify({a:null,b:true})`, `{"a":null,"b":true}`},
		{`JSON.stringify("quote\"d")`, `"quote\"d"`},
		{`JSON.parse("[1,2,3]").length + ""`, "3"},
		{`JSON.parse('{"a":{"b":[true,null]}}').a.b[0] + ""`, "true"},
		{`JSON.parse('"A"')`, "A"},
		{`JSON.parse("  42  ") + ""`, "42"},
		{`JSON.stringify(NaN)`, "null"},
	}
	for _, tt := range tests {
		if got := evalStr(t, tt.src); got != tt.want {
			t.Errorf("%q = %q, want %q", tt.src, got, tt.want)
		}
	}
}

// Inspect renders a value for test failure messages.
func Inspect(v Value) string {
	switch v.kind {
	case KindString:
		return fmt.Sprintf("%q", v.str)
	case KindObject:
		if v.obj.Class == ClassArray {
			parts := make([]string, len(v.obj.Elems))
			for i, e := range v.obj.Elems {
				parts[i] = Inspect(e)
			}
			return "[" + strings.Join(parts, ", ") + "]"
		}
		if v.obj.Class == ClassPlain {
			var parts []string
			for _, k := range v.obj.Keys() {
				parts = append(parts, k+": "+Inspect(v.obj.own(k)))
			}
			return "{" + strings.Join(parts, ", ") + "}"
		}
		return v.ToString()
	default:
		return v.ToString()
	}
}

func TestInspectRendering(t *testing.T) {
	ip := New(0)
	v, err := ip.Eval(`({name: "kit", list: [1, "two"]})`)
	if err != nil {
		t.Fatal(err)
	}
	got := Inspect(v)
	if !strings.Contains(got, `name: "kit"`) || !strings.Contains(got, `[1, "two"]`) {
		t.Errorf("Inspect = %q", got)
	}
}

func TestArrayIndexWriteGrowth(t *testing.T) {
	src := `var a = []; a[3] = "x"; a.length + ":" + (a[0] === undefined)`
	if got := evalStr(t, src); got != "4:true" {
		t.Errorf("sparse write = %q", got)
	}
	src = `var a = [1,2,3,4]; a.length = 2; a.join("")`
	if got := evalStr(t, src); got != "12" {
		t.Errorf("length truncation = %q", got)
	}
}

func TestRegExpExecGroups(t *testing.T) {
	src := `
	var re = new RegExp("(\\w+)@(\\w+)");
	var m = re.exec("contact victim@corp now");
	m[0] + "|" + m[1] + "|" + m[2]
	`
	if got := evalStr(t, src); got != "victim@corp|victim|corp" {
		t.Errorf("exec = %q", got)
	}
	if got := evalStr(t, `new RegExp("zz").exec("abc") === null ? "null" : "hit"`); got != "null" {
		t.Errorf("no-match exec = %q", got)
	}
	src = `
	var r = "";
	try { new RegExp("[unclosed"); } catch (e) { r = e.name; }
	r`
	if got := evalStr(t, src); got != "SyntaxError" {
		t.Errorf("bad regex = %q", got)
	}
}

func TestParseIntBases(t *testing.T) {
	tests := []struct {
		src  string
		want float64
	}{
		{`parseInt("0x1f", 16)`, 31},
		{`parseInt("101", 2)`, 5},
		{`parseInt("  42  ")`, 42},
		{`parseInt("+7")`, 7},
	}
	for _, tt := range tests {
		if got := evalNum(t, tt.src); got != tt.want {
			t.Errorf("%q = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestDatePieces(t *testing.T) {
	ip := New(0)
	v, err := ip.Eval(`
	var d = new Date();
	d.getTime() === Date.now() ? d.getTimezoneOffset() + "" : "mismatch"
	`)
	if err != nil {
		t.Fatal(err)
	}
	if v.ToString() != "0" {
		t.Errorf("date pieces = %q", v.ToString())
	}
}
