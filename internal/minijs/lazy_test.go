package minijs

import (
	"strings"
	"testing"
)

// An embedder's globals can be built on demand (Interp.Resolve), and an
// object's properties can be put off (Object.Defer). These tests pin that a
// script cannot tell either from values installed up front, and that
// objects start without a property map.

// _hostGlobals are the embedder globals the tests resolve: two objects, one
// aliasing the other, and a host function.
var _hostGlobals = []string{"nav", "win", "hook"}

// hostRealm builds the embedder globals of one interpreter, each at most
// once, and counts the builds by name. With shadowMath it also supplies a
// Math of its own, which shadows the builtin; only the tests of embedder
// lookups set it, so the fuzz target compares the builtin Math built on
// demand with the one installed up front.
type hostRealm struct {
	shadowMath bool
	nav, win   *Object
	hook       Value
	built      []string
}

func (r *hostRealm) resolve(name string) (Value, bool) {
	var v Value
	switch name {
	case "nav":
		v = ObjectValue(r.navigator())
	case "win":
		if r.win == nil {
			r.win = NewObject()
			r.win.Set("nav", ObjectValue(r.navigator()))
			r.win.Set("width", Number(1920))
		}
		v = ObjectValue(r.win)
	case "hook":
		if r.hook.Kind() != KindObject {
			r.hook = NewHostFunc(func(_ *Interp, _ Value, args []Value) (Value, error) {
				return Number(float64(len(args))), nil
			})
		}
		v = r.hook
	case "Math":
		if !r.shadowMath {
			return Undefined, false
		}
		v = String("embedder math")
	default:
		return Undefined, false
	}
	r.built = append(r.built, name)
	return v, true
}

func (r *hostRealm) navigator() *Object {
	if r.nav == nil {
		r.nav = NewObject()
		r.nav.Set("webdriver", False)
		r.nav.Set("languages", ObjectValue(NewArray(String("en-US"), String("en"))))
	}
	return r.nav
}

// lazyInterp returns an interpreter that builds the embedder globals on
// demand, and the realm that counts the builds.
func lazyInterp(fuel int64, shadowMath bool) (*Interp, *hostRealm) {
	r := &hostRealm{shadowMath: shadowMath}
	ip := New(fuel)
	ip.Resolve = r.resolve
	return ip, r
}

// eagerInterp returns an interpreter with every builtin and embedder global
// installed up front.
func eagerInterp(fuel int64, shadowMath bool) *Interp {
	ip := New(fuel)
	for name, mk := range _builtins {
		ip.SetGlobal(name, mk())
	}
	r := &hostRealm{shadowMath: shadowMath}
	for _, name := range append(_hostGlobals, "Math") {
		if v, ok := r.resolve(name); ok {
			ip.SetGlobal(name, v)
		}
	}
	return ip
}

func TestResolvedGlobalsReadAsInstalled(t *testing.T) {
	for _, tc := range []struct {
		src, want string
		built     string // the globals the lazy realm builds, in order
	}{
		{`typeof nav + typeof nav + typeof hook + typeof nope`, "objectobjectfunctionundefined", "nav hook"},
		{`win.nav === nav && nav === win.nav && hook === hook`, "true", "win nav hook"},
		{`nav.webdriver + "," + win.width + "," + hook(1, 2)`, "false,1920,2", "nav win hook"},
		{`nav = 5; typeof nav + " " + typeof win.nav`, "number object", "win"},
		{`var nav; typeof nav`, "undefined", ""},
		{`var nav = 1; function f() { return typeof nav } f()`, "number", ""},
		{`function g() { var win = 2; return win } g() + typeof win`, "2object", "win"},
		{`(function () { hook = null })(); hook`, "null", ""},
		{`Math`, "embedder math", "Math"},
		{`typeof nope; typeof nope; var x = this; "ok"`, "ok", ""},
		{`var r; try { nope; r = "reached" } catch (e) { r = "caught" } r`, "caught", ""},
	} {
		lazy, realm := lazyInterp(50_000, true)
		eager := eagerInterp(50_000, true)
		lv, lerr := lazy.Eval(tc.src)
		ev, eerr := eager.Eval(tc.src)
		if lerr != nil || eerr != nil {
			t.Fatalf("%s: errors %v (on demand) and %v (installed)", tc.src, lerr, eerr)
		}
		if lv.ToString() != tc.want || ev.ToString() != tc.want {
			t.Errorf("%s = %q on demand, %q installed; want %q", tc.src, lv.ToString(), ev.ToString(), tc.want)
		}
		if got := strings.Join(realm.built, " "); got != tc.built {
			t.Errorf("%s built %q, want %q", tc.src, got, tc.built)
		}
		// Building runs no script, so it burns no fuel.
		if lazy.Fuel() != eager.Fuel() {
			t.Errorf("%s left %d fuel on demand, %d installed", tc.src, lazy.Fuel(), eager.Fuel())
		}
	}
}

// Interp.Global builds an embedder global like a script lookup does, and
// reports a name no one supplies as missing.
func TestGlobalResolvesOnDemand(t *testing.T) {
	ip, realm := lazyInterp(0, false)
	v, ok := ip.Global("nav")
	if !ok || v.Object() != realm.nav {
		t.Fatalf("Global(nav) = %v, %v; want the realm's navigator", v, ok)
	}
	if _, ok := ip.Global("nope"); ok {
		t.Error("Global reports a name no one supplies")
	}
	if w, _ := ip.Eval(`nav`); w.Object() != realm.nav || len(realm.built) != 1 {
		t.Errorf("a second lookup rebuilt nav: built %q", realm.built)
	}
	// A realm that does not shadow Math leaves the builtin in place: the
	// one FuzzBuiltinsOnDemand compares.
	if m, _ := ip.Eval(`typeof Math.floor`); m.ToString() != "function" || len(realm.built) != 1 {
		t.Errorf("typeof Math.floor = %q, built %q; want the builtin", m.ToString(), realm.built)
	}
}

// Objects start without a property map; every way to read, enumerate or
// delete properties works on them.
func TestNilPropsObjects(t *testing.T) {
	for _, v := range []Value{ObjectValue(NewObject()), ObjectValue(NewArray()), NewHostFunc(nil)} {
		o := v.Object()
		if o.Props != nil {
			t.Fatalf("a new %d object has a property map", o.Class)
		}
		if o.Get("x").Kind() != KindUndefined || o.Has("x") || len(o.Keys()) != 0 {
			t.Errorf("a new %d object reads a property", o.Class)
		}
		o.Delete("x")
		if o.Props != nil {
			t.Errorf("deleting from a new %d object made a property map", o.Class)
		}
	}
	for src, want := range map[string]string{
		`var o = {}; var n = 0; for (var k in o) { n++ } n`:                                      "0",
		`var n = 0; for (var k in parseInt) { n++ } n`:                                           "0",
		`JSON.stringify({}) + JSON.stringify([]) + JSON.stringify({a: {}})`:                      `{}[]{"a":{}}`,
		`var o = {}; delete o.x; "x" in o`:                                                       "false",
		`Object.keys({}).length + Object.values([]).length + Object.keys(function () {}).length`: "0",
		`var f = function () {}; f.y = 2; f.y`:                                                   "2",
		`var o = Object.assign({}, {}); o.z = 1; Object.keys(o).join()`:                          "z",
		`var e = new Error("m"); e.message`:                                                      "m",
		`[].length + [1, 2].length`:                                                              "2",
		`function F() {} var i = new F(); typeof i + Object.keys(i).length`:                      "object0",
		`var d = new Date(); typeof d.getTime()`:                                                 "number",
		`new RegExp("a").test("cat")`:                                                            "true",
	} {
		if got := evalStr(t, src); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
	if got := Inspect(ObjectValue(NewObject())); got != "{}" {
		t.Errorf("Inspect of a new object = %q", got)
	}
}

// A deferred fill runs once, before the first access that could tell its
// properties are missing, and never overwrites a later write.
func TestDeferredFill(t *testing.T) {
	newDeferred := func(fills *int) *Object {
		o := NewObject()
		o.Set("held", Number(1))
		o.Defer(func(o *Object) {
			*fills++
			o.Set("late", Number(2))
			o.Set("other", Number(3))
		})
		return o
	}
	for _, tc := range []struct {
		name  string
		op    func(o *Object) string
		fills int
		want  string
	}{
		{"get held", func(o *Object) string { return o.Get("held").ToString() }, 0, "1"},
		{"set held", func(o *Object) string { o.Set("held", Number(9)); return o.Get("held").ToString() }, 0, "9"},
		{"has held", func(o *Object) string { return Bool(o.Has("held")).ToString() }, 0, "true"},
		{"get late", func(o *Object) string { return o.Get("late").ToString() }, 1, "2"},
		{"get missing", func(o *Object) string { return o.Get("nope").ToString() }, 1, "undefined"},
		{"has late", func(o *Object) string { return Bool(o.Has("late")).ToString() }, 1, "true"},
		{"set late", func(o *Object) string {
			o.Set("late", Number(7))
			return o.Get("late").ToString() + o.Get("other").ToString()
		}, 1, "73"},
		{"set new", func(o *Object) string { o.Set("new", Number(5)); return strings.Join(o.Keys(), ",") }, 1, "held,late,new,other"},
		{"keys", func(o *Object) string { return strings.Join(o.Keys(), ",") }, 1, "held,late,other"},
		{"delete late", func(o *Object) string { o.Delete("late"); return o.Get("late").ToString() }, 1, "undefined"},
	} {
		fills := 0
		o := newDeferred(&fills)
		if got := tc.op(o); got != tc.want {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
		if fills != tc.fills {
			t.Errorf("%s: the fill ran %d times, want %d", tc.name, fills, tc.fills)
		}
		o.Keys()
		o.Get("late")
		if fills != 1 {
			t.Errorf("%s: the fill ran %d times in all, want once", tc.name, fills)
		}
	}
	// Scripts see a deferred object as if it had been filled up front.
	fills := 0
	ip := New(0)
	ip.SetGlobal("d", ObjectValue(newDeferred(&fills)))
	v, err := ip.Eval(`var ks = []; for (var k in d) { ks.push(k) } ks.join() + JSON.stringify(d) + ("late" in d)`)
	if err != nil {
		t.Fatal(err)
	}
	if want := `held,late,other{"held":1,"late":2,"other":3}true`; v.ToString() != want {
		t.Errorf("script reads %q, want %q", v.ToString(), want)
	}
}
