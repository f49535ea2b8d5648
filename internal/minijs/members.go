package minijs

import (
	"math"
	"strconv"
	"strings"
)

// getMember implements property reads on every value kind, including the
// string and array method tables.
func (ip *Interp) getMember(objVal Value, prop string) (Value, error) {
	switch objVal.kind {
	case KindString:
		return ip.stringMember(objVal.str, prop)
	case KindObject:
		o := objVal.obj
		if o.Class == ClassArray {
			if idx, ok := arrayIndex(prop); ok {
				if idx >= 0 && idx < len(o.Elems) {
					return o.Elems[idx], nil
				}
				return Undefined, nil
			}
			if v, err, ok := ip.arrayMember(o, prop); ok {
				return v, err
			}
		}
		return o.Get(prop), nil
	case KindNumber:
		if prop == "toFixed" {
			n := objVal.num
			return NewHostFunc(func(_ *Interp, _ Value, args []Value) (Value, error) {
				digits := 0
				if len(args) > 0 {
					digits = int(args[0].ToNumber())
				}
				return String(strconv.FormatFloat(n, 'f', digits, 64)), nil
			}), nil
		}
		if prop == "toString" {
			n := objVal.num
			return NewHostFunc(func(_ *Interp, _ Value, args []Value) (Value, error) {
				base := 10
				if len(args) > 0 {
					base = int(args[0].ToNumber())
				}
				if base < 2 || base > 36 {
					base = 10
				}
				return String(strconv.FormatInt(int64(n), base)), nil
			}), nil
		}
		return Undefined, nil
	case KindUndefined, 0:
		return Undefined, &throwSignal{value: errorValue("TypeError",
			"cannot read properties of undefined (reading '"+prop+"')")}
	case KindNull:
		return Undefined, &throwSignal{value: errorValue("TypeError",
			"cannot read properties of null (reading '"+prop+"')")}
	default:
		return Undefined, nil
	}
}

// setMember implements property writes.
func (ip *Interp) setMember(objVal Value, prop string, val Value) error {
	if objVal.kind != KindObject {
		if objVal.IsNullish() {
			return &throwSignal{value: errorValue("TypeError",
				"cannot set properties of "+objVal.ToString())}
		}
		return nil // writes to primitives are silently dropped
	}
	o := objVal.obj
	if o.Class == ClassArray {
		if idx, ok := arrayIndex(prop); ok {
			for len(o.Elems) <= idx {
				o.Elems = append(o.Elems, Undefined)
			}
			o.Elems[idx] = val
			return nil
		}
		if prop == "length" {
			n := int(val.ToNumber())
			switch {
			case n < len(o.Elems):
				o.Elems = o.Elems[:n]
			default:
				for len(o.Elems) < n {
					o.Elems = append(o.Elems, Undefined)
				}
			}
			return nil
		}
	}
	o.Set(prop, val)
	return nil
}

func arrayIndex(prop string) (int, bool) {
	if prop == "" {
		return 0, false
	}
	for _, r := range prop {
		if r < '0' || r > '9' {
			return 0, false
		}
	}
	n, err := strconv.Atoi(prop)
	if err != nil {
		return 0, false
	}
	return n, true
}

// stringMember implements the string method table.
func (ip *Interp) stringMember(s, prop string) (Value, error) {
	if idx, ok := arrayIndex(prop); ok {
		if idx < len(s) {
			return String(string(s[idx])), nil
		}
		return Undefined, nil
	}
	switch prop {
	case "length":
		return Number(float64(len(s))), nil
	case "indexOf":
		return strFn(func(args []Value) Value {
			if len(args) == 0 {
				return Number(-1)
			}
			return Number(float64(strings.Index(s, args[0].ToString())))
		}), nil
	case "lastIndexOf":
		return strFn(func(args []Value) Value {
			if len(args) == 0 {
				return Number(-1)
			}
			return Number(float64(strings.LastIndex(s, args[0].ToString())))
		}), nil
	case "includes":
		return strFn(func(args []Value) Value {
			return Bool(len(args) > 0 && strings.Contains(s, args[0].ToString()))
		}), nil
	case "startsWith":
		return strFn(func(args []Value) Value {
			return Bool(len(args) > 0 && strings.HasPrefix(s, args[0].ToString()))
		}), nil
	case "endsWith":
		return strFn(func(args []Value) Value {
			return Bool(len(args) > 0 && strings.HasSuffix(s, args[0].ToString()))
		}), nil
	case "slice", "substring":
		return strFn(func(args []Value) Value {
			start, end := sliceRange(len(s), args, prop == "slice")
			if start >= end {
				return String("")
			}
			return String(s[start:end])
		}), nil
	case "substr":
		return strFn(func(args []Value) Value {
			start := 0
			if len(args) > 0 {
				start = int(args[0].ToNumber())
				if start < 0 {
					start = max(0, len(s)+start)
				}
			}
			if start >= len(s) {
				return String("")
			}
			length := len(s) - start
			if len(args) > 1 {
				length = int(args[1].ToNumber())
			}
			end := min(len(s), start+max(0, length))
			return String(s[start:end])
		}), nil
	case "charAt":
		return strFn(func(args []Value) Value {
			i := 0
			if len(args) > 0 {
				i = int(args[0].ToNumber())
			}
			if i < 0 || i >= len(s) {
				return String("")
			}
			return String(string(s[i]))
		}), nil
	case "charCodeAt":
		return strFn(func(args []Value) Value {
			i := 0
			if len(args) > 0 {
				i = int(args[0].ToNumber())
			}
			if i < 0 || i >= len(s) {
				return Number(math.NaN())
			}
			return Number(float64(s[i]))
		}), nil
	case "toLowerCase":
		return strFn(func([]Value) Value { return String(strings.ToLower(s)) }), nil
	case "toUpperCase":
		return strFn(func([]Value) Value { return String(strings.ToUpper(s)) }), nil
	case "trim":
		return strFn(func([]Value) Value { return String(strings.TrimSpace(s)) }), nil
	case "split":
		return strFn(func(args []Value) Value {
			if len(args) == 0 {
				return ObjectValue(NewArray(String(s)))
			}
			parts := strings.Split(s, args[0].ToString())
			arr := NewArray()
			for _, p := range parts {
				arr.Elems = append(arr.Elems, String(p))
			}
			return ObjectValue(arr)
		}), nil
	case "replace":
		return strFn(func(args []Value) Value {
			if len(args) < 2 {
				return String(s)
			}
			return String(strings.Replace(s, args[0].ToString(), args[1].ToString(), 1))
		}), nil
	case "replaceAll":
		return strFn(func(args []Value) Value {
			if len(args) < 2 {
				return String(s)
			}
			return String(strings.ReplaceAll(s, args[0].ToString(), args[1].ToString()))
		}), nil
	case "concat":
		return strFn(func(args []Value) Value {
			out := s
			for _, a := range args {
				out += a.ToString()
			}
			return String(out)
		}), nil
	case "repeat":
		return strFn(func(args []Value) Value {
			n := 0
			if len(args) > 0 {
				n = int(args[0].ToNumber())
			}
			if n < 0 || n > 1<<16 {
				n = 0
			}
			return String(strings.Repeat(s, n))
		}), nil
	case "padStart":
		return strFn(func(args []Value) Value {
			if len(args) == 0 {
				return String(s)
			}
			width := int(args[0].ToNumber())
			pad := " "
			if len(args) > 1 {
				pad = args[1].ToString()
			}
			out := s
			for len(out) < width && pad != "" {
				out = pad + out
			}
			if len(out) > width && len(out)-len(s) > 0 {
				out = out[len(out)-width:]
			}
			return String(out)
		}), nil
	case "toString", "valueOf":
		return strFn(func([]Value) Value { return String(s) }), nil
	default:
		return Undefined, nil
	}
}

// strFn wraps a pure string helper as a host function.
func strFn(fn func(args []Value) Value) Value {
	return NewHostFunc(func(_ *Interp, _ Value, args []Value) (Value, error) {
		return fn(args), nil
	})
}

// sliceRange resolves (start, end) arguments against a length; sliceMode
// handles negative indices like String.prototype.slice.
func sliceRange(n int, args []Value, sliceMode bool) (int, int) {
	start, end := 0, n
	if len(args) > 0 && !args[0].IsUndefined() {
		start = int(args[0].ToNumber())
	}
	if len(args) > 1 && !args[1].IsUndefined() {
		end = int(args[1].ToNumber())
	}
	norm := func(i int) int {
		if i < 0 {
			if sliceMode {
				i += n
			} else {
				i = 0
			}
		}
		if i < 0 {
			i = 0
		}
		if i > n {
			i = n
		}
		return i
	}
	start, end = norm(start), norm(end)
	if !sliceMode && start > end {
		start, end = end, start
	}
	return start, end
}

// arrayMember implements the array method table. The third return reports
// whether the property was an array method.
func (ip *Interp) arrayMember(o *Object, prop string) (Value, error, bool) {
	switch prop {
	case "push":
		return NewHostFunc(func(_ *Interp, _ Value, args []Value) (Value, error) {
			o.Elems = append(o.Elems, args...)
			return Number(float64(len(o.Elems))), nil
		}), nil, true
	case "pop":
		return NewHostFunc(func(_ *Interp, _ Value, _ []Value) (Value, error) {
			if len(o.Elems) == 0 {
				return Undefined, nil
			}
			last := o.Elems[len(o.Elems)-1]
			o.Elems = o.Elems[:len(o.Elems)-1]
			return last, nil
		}), nil, true
	case "shift":
		return NewHostFunc(func(_ *Interp, _ Value, _ []Value) (Value, error) {
			if len(o.Elems) == 0 {
				return Undefined, nil
			}
			first := o.Elems[0]
			o.Elems = o.Elems[1:]
			return first, nil
		}), nil, true
	case "join":
		return NewHostFunc(func(_ *Interp, _ Value, args []Value) (Value, error) {
			sep := ","
			if len(args) > 0 {
				sep = args[0].ToString()
			}
			return String(o.join(sep)), nil
		}), nil, true
	case "indexOf":
		return NewHostFunc(func(_ *Interp, _ Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return Number(-1), nil
			}
			for i, e := range o.Elems {
				if StrictEquals(e, args[0]) {
					return Number(float64(i)), nil
				}
			}
			return Number(-1), nil
		}), nil, true
	case "includes":
		return NewHostFunc(func(_ *Interp, _ Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return False, nil
			}
			for _, e := range o.Elems {
				if StrictEquals(e, args[0]) {
					return True, nil
				}
			}
			return False, nil
		}), nil, true
	case "slice":
		return NewHostFunc(func(_ *Interp, _ Value, args []Value) (Value, error) {
			start, end := sliceRange(len(o.Elems), args, true)
			out := NewArray()
			if start < end {
				out.Elems = append(out.Elems, o.Elems[start:end]...)
			}
			return ObjectValue(out), nil
		}), nil, true
	case "concat":
		return NewHostFunc(func(_ *Interp, _ Value, args []Value) (Value, error) {
			out := NewArray(o.Elems...)
			for _, a := range args {
				if a.kind == KindObject && a.obj.Class == ClassArray {
					out.Elems = append(out.Elems, a.obj.Elems...)
				} else {
					out.Elems = append(out.Elems, a)
				}
			}
			return ObjectValue(out), nil
		}), nil, true
	case "reverse":
		return NewHostFunc(func(_ *Interp, _ Value, _ []Value) (Value, error) {
			for i, j := 0, len(o.Elems)-1; i < j; i, j = i+1, j-1 {
				o.Elems[i], o.Elems[j] = o.Elems[j], o.Elems[i]
			}
			return ObjectValue(o), nil
		}), nil, true
	case "forEach":
		return NewHostFunc(func(interp *Interp, _ Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return Undefined, nil
			}
			for i, e := range o.Elems {
				if _, err := interp.call(args[0], Undefined, []Value{e, Number(float64(i))}, 0); err != nil {
					return Undefined, err
				}
			}
			return Undefined, nil
		}), nil, true
	case "map":
		return NewHostFunc(func(interp *Interp, _ Value, args []Value) (Value, error) {
			out := NewArray()
			if len(args) == 0 {
				return ObjectValue(out), nil
			}
			for i, e := range o.Elems {
				v, err := interp.call(args[0], Undefined, []Value{e, Number(float64(i))}, 0)
				if err != nil {
					return Undefined, err
				}
				out.Elems = append(out.Elems, v)
			}
			return ObjectValue(out), nil
		}), nil, true
	case "filter":
		return NewHostFunc(func(interp *Interp, _ Value, args []Value) (Value, error) {
			out := NewArray()
			if len(args) == 0 {
				return ObjectValue(out), nil
			}
			for i, e := range o.Elems {
				v, err := interp.call(args[0], Undefined, []Value{e, Number(float64(i))}, 0)
				if err != nil {
					return Undefined, err
				}
				if v.Truthy() {
					out.Elems = append(out.Elems, e)
				}
			}
			return ObjectValue(out), nil
		}), nil, true
	default:
		return Undefined, nil, false
	}
}
