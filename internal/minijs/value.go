package minijs

import (
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind discriminates runtime values. It is a byte so that it and Value.b
// share a word: a Value is 40 bytes.
type Kind uint8

// Value kinds.
const (
	KindUndefined Kind = iota + 1
	KindNull
	KindBool
	KindNumber
	KindString
	KindObject
)

// Value is a runtime JavaScript value. The zero Value is undefined.
type Value struct {
	kind Kind
	b    bool
	num  float64
	str  string
	obj  *Object
}

// Constructors for each value kind.
var (
	Undefined = Value{kind: KindUndefined}
	Null      = Value{kind: KindNull}
	True      = Value{kind: KindBool, b: true}
	False     = Value{kind: KindBool, b: false}
)

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// Number returns a numeric value.
func Number(n float64) Value { return Value{kind: KindNumber, num: n} }

// String returns a string value.
func String(s string) Value { return Value{kind: KindString, str: s} }

// ObjectValue wraps an object.
func ObjectValue(o *Object) Value { return Value{kind: KindObject, obj: o} }

// Kind returns the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsUndefined reports whether the value is undefined.
func (v Value) IsUndefined() bool { return v.kind == KindUndefined || v.kind == 0 }

// IsNullish reports whether the value is null or undefined.
func (v Value) IsNullish() bool { return v.IsUndefined() || v.kind == KindNull }

// Object returns the wrapped object or nil.
func (v Value) Object() *Object {
	if v.kind == KindObject {
		return v.obj
	}
	return nil
}

// HostFunc is a Go function callable from scripts. this is the receiver for
// method calls (undefined otherwise).
type HostFunc func(interp *Interp, this Value, args []Value) (Value, error)

// ObjectClass tags special object behaviors. It is a byte so that it and
// Object.joining share a word.
type ObjectClass uint8

// Object classes.
const (
	ClassPlain ObjectClass = iota + 1
	ClassArray
	ClassFunction
	ClassError
)

// Object is a mutable property bag, also used for arrays and functions.
// It is 96 bytes: what few objects carry (embedder data, a pending fill)
// sits behind ext.
type Object struct {
	Class ObjectClass
	// joining is set while the array's elements are being joined, see
	// join.
	joining bool
	// props holds named properties. Array elements live in Elems. It holds
	// no storage until the first Set: most objects a script makes are read,
	// never written. Read it through Get, Has, Keys and NumProps, which
	// also run a fill registered with Defer.
	props propTable
	// Elems holds array elements when Class == ClassArray.
	Elems []Value
	// fn is the compiled function for script functions.
	fn *funcLit
	// env is the closure environment for script functions.
	env *environment
	// host is the Go implementation for host functions.
	host HostFunc
	// ext is nil until SetHostData or Defer needs it.
	ext *objectExt
}

// objectExt holds the fields few objects use.
type objectExt struct {
	// hostData lets embedders attach arbitrary state (e.g. a DOM node).
	hostData any
	// fill adds the properties Defer put off; it is cleared when it runs.
	fill func(*Object)
}

// extension returns o's ext, making it if needed.
func (o *Object) extension() *objectExt {
	if o.ext == nil {
		o.ext = &objectExt{}
	}
	return o.ext
}

// HostData returns the value SetHostData attached, or nil.
func (o *Object) HostData() any {
	if o.ext == nil {
		return nil
	}
	return o.ext.hostData
}

// SetHostData attaches embedder state to o (e.g. the DOM node an element
// wraps). Scripts cannot see it.
func (o *Object) SetHostData(v any) {
	o.extension().hostData = v
}

// join renders an array's elements separated by sep, nullish elements as
// "". An array that is already being joined further up the same call
// renders as "", as browsers do, so an array that contains itself joins
// instead of recursing until the Go stack overflows.
func (o *Object) join(sep string) string {
	if o.joining {
		return ""
	}
	o.joining = true
	parts := make([]string, len(o.Elems))
	for i, e := range o.Elems {
		if !e.IsNullish() {
			parts[i] = e.ToString()
		}
	}
	o.joining = false
	return strings.Join(parts, sep)
}

// NewObject returns an empty plain object.
func NewObject() *Object {
	return &Object{Class: ClassPlain}
}

// NewArray returns an array object with the given elements.
func NewArray(elems ...Value) *Object {
	return &Object{Class: ClassArray, Elems: elems}
}

// NewHostFunc wraps a Go function as a callable object value.
func NewHostFunc(fn HostFunc) Value {
	return ObjectValue(&Object{Class: ClassFunction, host: fn})
}

// Defer puts off building some of o's properties: fill adds them, and it
// runs once, before the first Get, Has or Set of a name o does not hold yet
// and before the first Keys, NumProps or Delete. Until then no script can
// tell the properties are missing, so fill must add exactly what it would
// have added when Defer was called. An object has at most one pending fill.
func (o *Object) Defer(fill func(o *Object)) {
	o.extension().fill = fill
}

// runFill runs and clears a fill registered with Defer, and reports
// whether there was one.
func (o *Object) runFill() bool {
	if o.ext == nil || o.ext.fill == nil {
		return false
	}
	fill := o.ext.fill
	o.ext.fill = nil
	fill(o)
	return true
}

// Get reads a named property.
func (o *Object) Get(name string) Value {
	if o.Class == ClassArray && name == "length" {
		return Number(float64(len(o.Elems)))
	}
	if v, ok := o.props.get(name); ok {
		return v
	}
	if o.runFill() {
		return o.Get(name)
	}
	return Undefined
}

// Set writes a named property.
func (o *Object) Set(name string, v Value) {
	if o.props.set(name, v) {
		return
	}
	if o.runFill() && o.props.set(name, v) {
		return
	}
	o.props.add(name, v)
}

// Grow makes room for n more named properties, so that the next n Sets of
// new names do not reallocate. An embedder that builds an object of known
// shape calls it before the Sets; on an object without properties it is
// the one allocation of their storage.
func (o *Object) Grow(n int) {
	o.props.grow(n)
}

// Has reports whether a named property exists.
func (o *Object) Has(name string) bool {
	if o.Class == ClassArray && name == "length" {
		return true
	}
	if o.props.find(name) >= 0 {
		return true
	}
	if o.runFill() {
		return o.Has(name)
	}
	return false
}

// Delete removes a named property.
func (o *Object) Delete(name string) {
	o.runFill()
	o.props.del(name)
}

// Keys returns the object's own property names, sorted for determinism.
func (o *Object) Keys() []string {
	o.runFill()
	out := make([]string, len(o.props.ents))
	for i := range o.props.ents {
		out[i] = o.props.ents[i].name
	}
	sort.Strings(out)
	return out
}

// NumProps returns how many named properties o has. Array elements are
// not named properties.
func (o *Object) NumProps() int {
	o.runFill()
	return len(o.props.ents)
}

// own reads a named property without the array length and without
// running a fill: for callers that ran Keys first.
func (o *Object) own(name string) Value {
	v, _ := o.props.get(name)
	return v
}

// Callable reports whether the object can be invoked.
func (o *Object) Callable() bool {
	return o.Class == ClassFunction && (o.fn != nil || o.host != nil)
}

// Truthy implements JavaScript boolean coercion.
func (v Value) Truthy() bool {
	switch v.kind {
	case KindBool:
		return v.b
	case KindNumber:
		return v.num != 0 && !math.IsNaN(v.num)
	case KindString:
		return v.str != ""
	case KindObject:
		return v.obj != nil
	default:
		return false
	}
}

// ToNumber implements JavaScript numeric coercion.
func (v Value) ToNumber() float64 {
	switch v.kind {
	case KindNumber:
		return v.num
	case KindBool:
		if v.b {
			return 1
		}
		return 0
	case KindString:
		s := strings.TrimSpace(v.str)
		if s == "" {
			return 0
		}
		n, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return math.NaN()
		}
		return n
	case KindNull:
		return 0
	case KindObject:
		if v.obj != nil && v.obj.Class == ClassArray {
			switch len(v.obj.Elems) {
			case 0:
				return 0
			case 1:
				return v.obj.Elems[0].ToNumber()
			}
		}
		return math.NaN()
	default:
		return math.NaN()
	}
}

// ToString implements JavaScript string coercion.
func (v Value) ToString() string {
	switch v.kind {
	case KindString:
		return v.str
	case KindNumber:
		return trimFloat(v.num)
	case KindBool:
		if v.b {
			return "true"
		}
		return "false"
	case KindNull:
		return "null"
	case KindObject:
		switch v.obj.Class {
		case ClassArray:
			return v.obj.join(",")
		case ClassFunction:
			return "function () { [native or script code] }"
		case ClassError:
			return v.obj.Get("name").ToString() + ": " + v.obj.Get("message").ToString()
		default:
			return "[object Object]"
		}
	default:
		return "undefined"
	}
}

// TypeOf implements the typeof operator.
func (v Value) TypeOf() string {
	switch v.kind {
	case KindBool:
		return "boolean"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	case KindNull:
		return "object"
	case KindObject:
		if v.obj.Callable() {
			return "function"
		}
		return "object"
	default:
		return "undefined"
	}
}

// StrictEquals implements ===.
func StrictEquals(a, b Value) bool {
	ka, kb := a.kind, b.kind
	if ka == 0 {
		ka = KindUndefined
	}
	if kb == 0 {
		kb = KindUndefined
	}
	if ka != kb {
		return false
	}
	switch ka {
	case KindUndefined, KindNull:
		return true
	case KindBool:
		return a.b == b.b
	case KindNumber:
		return a.num == b.num
	case KindString:
		return a.str == b.str
	case KindObject:
		return a.obj == b.obj
	default:
		return false
	}
}

// LooseEquals implements == with the common coercion rules.
func LooseEquals(a, b Value) bool {
	if a.IsNullish() && b.IsNullish() {
		return true
	}
	if a.IsNullish() != b.IsNullish() {
		return false
	}
	ka, kb := a.kind, b.kind
	if ka == kb {
		return StrictEquals(a, b)
	}
	// Number/string/bool cross-comparisons go through numbers.
	if ka == KindObject || kb == KindObject {
		// Compare via string for array-to-primitive (sufficient subset).
		return a.ToString() == b.ToString()
	}
	return a.ToNumber() == b.ToNumber()
}

// trimFloat renders a float like JavaScript does for common cases.
func trimFloat(f float64) string {
	if math.IsNaN(f) {
		return "NaN"
	}
	if math.IsInf(f, 1) {
		return "Infinity"
	}
	if math.IsInf(f, -1) {
		return "-Infinity"
	}
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}
