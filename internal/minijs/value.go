package minijs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind discriminates runtime values.
type Kind int

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

// ObjectClass tags special object behaviors.
type ObjectClass int

// Object classes.
const (
	ClassPlain ObjectClass = iota + 1
	ClassArray
	ClassFunction
	ClassError
)

// Object is a mutable property bag, also used for arrays and functions.
type Object struct {
	Class ObjectClass
	// Props holds named properties. Array elements live in Elems.
	Props map[string]Value
	// Elems holds array elements when Class == ClassArray.
	Elems []Value
	// fn is the compiled function for script functions.
	fn *funcLit
	// env is the closure environment for script functions.
	env *environment
	// host is the Go implementation for host functions.
	host HostFunc
	// boundThis is the receiver captured by arrow functions.
	boundThis *Value
	// HostData lets embedders attach arbitrary state (e.g. an XHR handle).
	HostData any
	// joining is set while the array's elements are being joined, see
	// join.
	joining bool
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
	return &Object{Class: ClassPlain, Props: map[string]Value{}}
}

// NewArray returns an array object with the given elements.
func NewArray(elems ...Value) *Object {
	return &Object{Class: ClassArray, Props: map[string]Value{}, Elems: elems}
}

// NewHostFunc wraps a Go function as a callable object value.
func NewHostFunc(fn HostFunc) Value {
	return ObjectValue(&Object{Class: ClassFunction, Props: map[string]Value{}, host: fn})
}

// Get reads a named property.
func (o *Object) Get(name string) Value {
	if o.Class == ClassArray && name == "length" {
		return Number(float64(len(o.Elems)))
	}
	if v, ok := o.Props[name]; ok {
		return v
	}
	return Undefined
}

// Set writes a named property.
func (o *Object) Set(name string, v Value) {
	if o.Props == nil {
		o.Props = map[string]Value{}
	}
	o.Props[name] = v
}

// Has reports whether a named property exists.
func (o *Object) Has(name string) bool {
	if o.Class == ClassArray && name == "length" {
		return true
	}
	_, ok := o.Props[name]
	return ok
}

// Keys returns the object's own property names, sorted for determinism.
func (o *Object) Keys() []string {
	out := make([]string, 0, len(o.Props))
	for k := range o.Props {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
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

// Inspect renders a value for debugging output.
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
				parts = append(parts, k+": "+Inspect(v.obj.Props[k]))
			}
			return "{" + strings.Join(parts, ", ") + "}"
		}
		return v.ToString()
	default:
		return v.ToString()
	}
}
