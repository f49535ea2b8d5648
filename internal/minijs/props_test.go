package minijs

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// checkTable verifies a table's index against its entries: present past
// indexMin, one slot per entry, each pointing at its own name.
func checkTable(t *testing.T, what string, tab *propTable) {
	t.Helper()
	if len(tab.ents) > indexMin && tab.index == nil {
		t.Fatalf("%s: %d entries and no index", what, len(tab.ents))
	}
	if tab.index == nil {
		return
	}
	if len(tab.index) != len(tab.ents) {
		t.Fatalf("%s: index holds %d names for %d entries", what, len(tab.index), len(tab.ents))
	}
	for i, e := range tab.ents {
		if got, ok := tab.index[e.name]; !ok || int(got) != i {
			t.Fatalf("%s: index maps %q to %d, %v; it sits at %d", what, e.name, got, ok, i)
		}
	}
}

// propModel is the reference for an object's named properties: a map, and
// the properties a pending Defer fill adds when it runs.
type propModel struct {
	m       map[string]Value
	pending []string // names the fill sets, nil once it ran
}

func (pm *propModel) runFill() {
	for i, name := range pm.pending {
		pm.m[name] = fillValue(i)
	}
	pm.pending = nil
}

func fillValue(i int) Value { return String("fill" + strconv.Itoa(i)) }

// FuzzPropertyTable is the differential test of the property table: a
// random sequence of Set, Get, Has, Delete, Keys and NumProps on an object,
// some with a pending Defer fill, and of define, assign and lookup on a
// scope nested in another, must read exactly what plain maps read. Names
// come from 40 candidates, so sequences cross indexMin in both directions.
// Each input byte pair is one operation: the first picks it, the second the
// name.
func FuzzPropertyTable(f *testing.F) {
	grow := make([]byte, 0, 160)
	for i := byte(0); i < 40; i++ {
		grow = append(grow, 0, i) // Set k0..k39
	}
	shrink := slices.Clone(grow)
	for i := byte(0); i < 40; i++ {
		shrink = append(shrink, 3, i) // Delete k0..k39
	}
	shrink = append(shrink, grow[:40]...)
	f.Add([]byte{}, false)
	f.Add(grow, true)
	f.Add(shrink, false)
	f.Add(shrink, true)
	scopes := make([]byte, 0, 200)
	for i := byte(0); i < 40; i++ {
		scopes = append(scopes, 6, i, 7, 39-i, 8, i/2, 9, i)
	}
	f.Add(scopes, false)
	f.Fuzz(func(t *testing.T, ops []byte, deferFill bool) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		name := func(b byte) string { return "k" + strconv.Itoa(int(b)%40) }

		obj := NewObject()
		model := &propModel{m: map[string]Value{}}
		if deferFill {
			// The fill sets names from both ends of the range, so a
			// script can set some before it runs.
			model.pending = []string{"k1", "k2", "k38", "fill"}
			obj.Defer(func(o *Object) {
				for i, n := range []string{"k1", "k2", "k38", "fill"} {
					o.Set(n, fillValue(i))
				}
			})
		}
		ip := New(0)
		outer := &environment{parent: ip.global}
		inner := &environment{parent: outer}
		outerModel, innerModel := map[string]Value{}, map[string]Value{}

		for i := 0; i+1 < len(ops); i += 2 {
			op, key := ops[i]%10, name(ops[i+1])
			v := Number(float64(i))
			switch op {
			case 0: // Set
				if _, ok := model.m[key]; !ok {
					model.runFill()
				}
				model.m[key] = v
				obj.Set(key, v)
			case 1: // Get
				want, ok := model.m[key]
				if !ok {
					model.runFill()
					want, ok = model.m[key]
				}
				if !ok {
					want = Undefined
				}
				if got := obj.Get(key); !StrictEquals(got, want) {
					t.Fatalf("op %d: Get(%s) = %s, want %s", i/2, key, got.ToString(), want.ToString())
				}
			case 2: // Has
				_, ok := model.m[key]
				if !ok {
					model.runFill()
					_, ok = model.m[key]
				}
				if got := obj.Has(key); got != ok {
					t.Fatalf("op %d: Has(%s) = %v, want %v", i/2, key, got, ok)
				}
			case 3: // Delete
				model.runFill()
				delete(model.m, key)
				obj.Delete(key)
			case 4: // Keys
				model.runFill()
				want := make([]string, 0, len(model.m))
				for k := range model.m {
					want = append(want, k)
				}
				sort.Strings(want)
				if got := obj.Keys(); !slices.Equal(got, want) {
					t.Fatalf("op %d: Keys = %v, want %v", i/2, got, want)
				}
			case 5: // NumProps
				model.runFill()
				if got := obj.NumProps(); got != len(model.m) {
					t.Fatalf("op %d: NumProps = %d, want %d", i/2, got, len(model.m))
				}
			case 6: // define in the inner scope
				innerModel[key] = v
				inner.define(key, v)
			case 7: // define in the outer scope
				outerModel[key] = v
				outer.define(key, v)
			case 8: // assign from the inner scope
				want := true
				if _, ok := innerModel[key]; ok {
					innerModel[key] = v
				} else if _, ok := outerModel[key]; ok {
					outerModel[key] = v
				} else {
					want = false
				}
				if got := inner.assign(key, v); got != want {
					t.Fatalf("op %d: assign(%s) = %v, want %v", i/2, key, got, want)
				}
			case 9: // lookup from the inner scope
				want, ok := innerModel[key]
				if !ok {
					want, ok = outerModel[key]
				}
				got, found := inner.lookup(ip, key)
				if found != ok || ok && !StrictEquals(got, want) {
					t.Fatalf("op %d: lookup(%s) = %s, %v; want %s, %v", i/2, key, got.ToString(), found, want.ToString(), ok)
				}
			}
			checkTable(t, "object", &obj.props)
			checkTable(t, "inner scope", &inner.vars)
			checkTable(t, "outer scope", &outer.vars)
		}
		if model.pending == nil && obj.NumProps() != len(model.m) {
			t.Fatalf("object holds %d properties, want %d", obj.NumProps(), len(model.m))
		}
	})
}

// A script that gives one object 100,000 names, or one function 5,000
// var names, reaches each through the table's index. The test bounds no
// time: it checks the index is there, and that it finishes under -race.
func TestHostileTableSizes(t *testing.T) {
	ip := New(20_000_000)
	v, err := ip.Eval(`
		var o = {};
		for (var i = 0; i < 100000; i++) { o["k" + i] = i; }
		var sum = 0;
		for (var j = 0; j < 100000; j++) { sum += o["k" + j]; }
		sum`)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.ToNumber(); got != 4999950000 {
		t.Errorf("sum = %v", got)
	}
	o, _ := ip.Global("o")
	tab := &o.Object().props
	if len(tab.ents) != 100000 || tab.index == nil {
		t.Fatalf("the object holds %d names, index %v", len(tab.ents), tab.index != nil)
	}
	checkTable(t, "object", tab)

	var src strings.Builder
	src.WriteString("function f(a) {\n")
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&src, "var v%d = %d;\n", i, i)
	}
	src.WriteString("return function () { return a + v0 + v4999; };\n}\nvar g = f(1); g()")
	ip = New(0)
	v, err = ip.Eval(src.String())
	if err != nil {
		t.Fatal(err)
	}
	if got := v.ToNumber(); got != 5000 {
		t.Errorf("g() = %v", got)
	}
	g, _ := ip.Global("g")
	scope := &g.Object().env.vars // f's call scope, which g closes over
	// this, a, arguments and the 5,000 vars, in storage sized exactly.
	if len(scope.ents) != 5003 || cap(scope.ents) != 5003 || scope.index == nil {
		t.Fatalf("f's scope holds %d names in room for %d, index %v", len(scope.ents), cap(scope.ents), scope.index != nil)
	}
	checkTable(t, "scope", scope)
}

// A block that declares nothing runs in the enclosing scope; one that
// declares names gets a scope sized for them, and so does a call.
func TestScopeSizes(t *testing.T) {
	prog, err := Parse(`
		function f(a, b) { var c = 1; if (a) { var d = 2; } else var e = 3; for (var i = 0; i < 2; i++) { c++ } return c; }
		var arrow = (x) => { var y; function z() {} return x; };
		{ f(1, 2); }
		try { f(0) } catch (err) { var w; }`)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.stmts[0].(*funcDeclStmt).Fn
	// this, a, b, arguments, c, e (d's var sits in a block of its own).
	if f.scopeSize != 6 {
		t.Errorf("f's call scope is sized %d, want 6", f.scopeSize)
	}
	then := f.Body.Stmts[1].(*ifStmt).Then.(*blockStmt)
	if then.decls != 1 {
		t.Errorf("the then block declares %d names, want 1", then.decls)
	}
	loop := f.Body.Stmts[2].(*forStmt)
	if loop.decls != 1 || loop.Body.(*blockStmt).decls != 0 {
		t.Errorf("the loop declares %d names and its body %d, want 1 and 0", loop.decls, loop.Body.(*blockStmt).decls)
	}
	arrow := prog.stmts[1].(*varStmt).Inits[0].(*funcLit)
	// x, arguments, y and z: an arrow binds no this.
	if arrow.scopeSize != 4 {
		t.Errorf("the arrow's call scope is sized %d, want 4", arrow.scopeSize)
	}
	if b := prog.stmts[2].(*blockStmt); b.decls != 0 {
		t.Errorf("the bare block declares %d names, want 0", b.decls)
	}
	if tr := prog.stmts[3].(*tryStmt); tr.catchDecls != 2 {
		t.Errorf("the catch clause declares %d names, want 2", tr.catchDecls)
	}
	// A closure made in a block that declares nothing sees what its
	// enclosing scope binds later, and an arrow reads the this of the
	// call it was made in.
	for src, want := range map[string]string{
		`var fs = []; for (var i = 0; i < 3; i++) { fs.push(function () { return i; }); } fs[0]() + fs[2]()`:     "6",
		`function F() { this.v = 7; { this.get = () => this.v; } } var o = {v: 1}; o.get = new F().get; o.get()`: "7",
		`var o = {v: 4, m: function () { return [1, 2].map((x) => x * this.v).join(); }}; o.m()`:                 "4,8",
		`var t = (() => typeof this)(); t`: "undefined",
	} {
		if got := evalStr(t, src); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

// Value is 40 bytes and Object stays at 96: the property table replaced a
// map pointer with a slice and an index pointer, and the fields few
// objects use moved behind ext.
func TestValueAndObjectSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Value{}); got != 40 {
		t.Errorf("Value is %d bytes, want 40", got)
	}
	if got := unsafe.Sizeof(Object{}); got != 96 {
		t.Errorf("Object is %d bytes, want 96", got)
	}
}
