package minijs

import (
	"encoding/base64"
	"math"
	"net/url"
	"regexp"
	"strconv"
	"strings"
)

// _builtins maps each standard global to the constructor of its value.
// The repertoire is chosen to cover what the cloaking scripts in the corpus
// actually use: atob/btoa for payload obfuscation, Math and JSON, parseInt,
// RegExp for victim email validation, Error, Object.keys, Array.isArray,
// String/Number/Boolean converters, and URI encoding helpers.
//
// No interpreter installs them up front. A lookup that reaches the global
// scope unbound builds the value into that interpreter's own globals (see
// environment.lookup), so a realm pays only for the builtins its scripts
// name, and no value is shared between interpreters. It is filled by init
// because the Date builtin reads globals through the lookup that reads it.
var _builtins map[string]func() Value

func init() {
	_builtins = map[string]func() Value{
		"NaN":        func() Value { return Number(math.NaN()) },
		"Infinity":   func() Value { return Number(math.Inf(1)) },
		"globalThis": func() Value { return Undefined }, // embedders with a window may define it

		"isNaN":              hostFunc(isNaNBuiltin),
		"isFinite":           hostFunc(isFiniteBuiltin),
		"parseInt":           hostFunc(parseIntBuiltin),
		"parseFloat":         hostFunc(parseFloatBuiltin),
		"String":             stringBuiltin,
		"Number":             hostFunc(numberBuiltin),
		"Boolean":            hostFunc(booleanBuiltin),
		"atob":               hostFunc(atobBuiltin),
		"btoa":               hostFunc(btoaBuiltin),
		"encodeURIComponent": hostFunc(encodeURIComponentBuiltin),
		"decodeURIComponent": hostFunc(decodeURIComponentBuiltin),

		"Math":   mathBuiltin,
		"JSON":   jsonBuiltin,
		"Object": objectBuiltin,
		"Array":  arrayBuiltin,
		"Date":   dateBuiltin,
		"RegExp": regexpBuiltin,
	}
	for _, name := range []string{"Error", "TypeError", "RangeError", "SyntaxError", "ReferenceError"} {
		_builtins[name] = hostFunc(errorConstructor(name))
	}
}

// hostFunc returns a constructor of fresh host function objects around fn.
func hostFunc(fn HostFunc) func() Value {
	return func() Value { return NewHostFunc(fn) }
}

func isNaNBuiltin(_ *Interp, _ Value, args []Value) (Value, error) {
	return Bool(len(args) == 0 || math.IsNaN(args[0].ToNumber())), nil
}

func isFiniteBuiltin(_ *Interp, _ Value, args []Value) (Value, error) {
	if len(args) == 0 {
		return False, nil
	}
	n := args[0].ToNumber()
	return Bool(!math.IsNaN(n) && !math.IsInf(n, 0)), nil
}

func parseIntBuiltin(_ *Interp, _ Value, args []Value) (Value, error) {
	if len(args) == 0 {
		return Number(math.NaN()), nil
	}
	s := strings.TrimSpace(args[0].ToString())
	base := 10
	if len(args) > 1 && !args[1].IsUndefined() {
		base = int(args[1].ToNumber())
	}
	if base == 0 {
		base = 10
	}
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	} else {
		s = strings.TrimPrefix(s, "+")
	}
	if base == 16 {
		s = strings.TrimPrefix(strings.TrimPrefix(s, "0x"), "0X")
	}
	end := 0
	for end < len(s) {
		d := digitVal(s[end])
		if d < 0 || d >= base {
			break
		}
		end++
	}
	if end == 0 {
		return Number(math.NaN()), nil
	}
	n, err := strconv.ParseInt(s[:end], base, 64)
	if err != nil {
		return Number(math.NaN()), nil
	}
	if neg {
		n = -n
	}
	return Number(float64(n)), nil
}

func parseFloatBuiltin(_ *Interp, _ Value, args []Value) (Value, error) {
	if len(args) == 0 {
		return Number(math.NaN()), nil
	}
	s := strings.TrimSpace(args[0].ToString())
	end := 0
	seenDot, seenE := false, false
	for end < len(s) {
		c := s[end]
		switch {
		case c >= '0' && c <= '9':
		case c == '.' && !seenDot && !seenE:
			seenDot = true
		case (c == 'e' || c == 'E') && !seenE && end > 0:
			seenE = true
		case (c == '+' || c == '-') && (end == 0 || s[end-1] == 'e' || s[end-1] == 'E'):
		default:
			goto done
		}
		end++
	}
done:
	if end == 0 {
		return Number(math.NaN()), nil
	}
	n, err := strconv.ParseFloat(s[:end], 64)
	if err != nil {
		return Number(math.NaN()), nil
	}
	return Number(n), nil
}

// stringBuiltin builds the String converter with String.fromCharCode, the
// workhorse of obfuscated kit payloads.
func stringBuiltin() Value {
	s := NewHostFunc(func(_ *Interp, _ Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return String(""), nil
		}
		return String(args[0].ToString()), nil
	})
	s.Object().Set("fromCharCode", NewHostFunc(func(_ *Interp, _ Value, args []Value) (Value, error) {
		var sb strings.Builder
		for _, a := range args {
			sb.WriteRune(rune(int(a.ToNumber()) & 0x10FFFF))
		}
		return String(sb.String()), nil
	}))
	return s
}

func numberBuiltin(_ *Interp, _ Value, args []Value) (Value, error) {
	if len(args) == 0 {
		return Number(0), nil
	}
	return Number(args[0].ToNumber()), nil
}

func booleanBuiltin(_ *Interp, _ Value, args []Value) (Value, error) {
	return Bool(len(args) > 0 && args[0].Truthy()), nil
}

func atobBuiltin(_ *Interp, _ Value, args []Value) (Value, error) {
	if len(args) == 0 {
		return Undefined, Throw("InvalidCharacterError", "atob: missing argument")
	}
	decoded, err := base64.StdEncoding.DecodeString(strings.TrimSpace(args[0].ToString()))
	if err != nil {
		return Undefined, Throw("InvalidCharacterError", "atob: invalid base64")
	}
	return String(string(decoded)), nil
}

func btoaBuiltin(_ *Interp, _ Value, args []Value) (Value, error) {
	if len(args) == 0 {
		return Undefined, Throw("InvalidCharacterError", "btoa: missing argument")
	}
	return String(base64.StdEncoding.EncodeToString([]byte(args[0].ToString()))), nil
}

func encodeURIComponentBuiltin(_ *Interp, _ Value, args []Value) (Value, error) {
	if len(args) == 0 {
		return String("undefined"), nil
	}
	return String(url.QueryEscape(args[0].ToString())), nil
}

func decodeURIComponentBuiltin(_ *Interp, _ Value, args []Value) (Value, error) {
	if len(args) == 0 {
		return String("undefined"), nil
	}
	out, err := url.QueryUnescape(args[0].ToString())
	if err != nil {
		return Undefined, Throw("URIError", "malformed URI sequence")
	}
	return String(out), nil
}

// errorConstructor builds the constructor of the named error class.
func errorConstructor(name string) HostFunc {
	return func(_ *Interp, this Value, args []Value) (Value, error) {
		obj := this.Object()
		if obj == nil {
			obj = NewObject()
		}
		obj.Class = ClassError
		obj.Set("name", String(name))
		msg := ""
		if len(args) > 0 {
			msg = args[0].ToString()
		}
		obj.Set("message", String(msg))
		return ObjectValue(obj), nil
	}
}

func digitVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'z':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'Z':
		return int(c-'A') + 10
	default:
		return -1
	}
}

func mathBuiltin() Value {
	m := NewObject()
	pure := func(fn func(float64) float64) Value {
		return NewHostFunc(func(_ *Interp, _ Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return Number(math.NaN()), nil
			}
			return Number(fn(args[0].ToNumber())), nil
		})
	}
	m.Set("abs", pure(math.Abs))
	m.Set("floor", pure(math.Floor))
	m.Set("ceil", pure(math.Ceil))
	m.Set("round", pure(func(f float64) float64 { return math.Floor(f + 0.5) }))
	m.Set("sqrt", pure(math.Sqrt))
	m.Set("log", pure(math.Log))
	m.Set("exp", pure(math.Exp))
	m.Set("sin", pure(math.Sin))
	m.Set("cos", pure(math.Cos))
	m.Set("trunc", pure(math.Trunc))
	m.Set("sign", pure(func(f float64) float64 {
		switch {
		case f > 0:
			return 1
		case f < 0:
			return -1
		default:
			return f
		}
	}))
	m.Set("pow", NewHostFunc(func(_ *Interp, _ Value, args []Value) (Value, error) {
		if len(args) < 2 {
			return Number(math.NaN()), nil
		}
		return Number(math.Pow(args[0].ToNumber(), args[1].ToNumber())), nil
	}))
	m.Set("max", NewHostFunc(func(_ *Interp, _ Value, args []Value) (Value, error) {
		out := math.Inf(-1)
		for _, a := range args {
			out = math.Max(out, a.ToNumber())
		}
		return Number(out), nil
	}))
	m.Set("min", NewHostFunc(func(_ *Interp, _ Value, args []Value) (Value, error) {
		out := math.Inf(1)
		for _, a := range args {
			out = math.Min(out, a.ToNumber())
		}
		return Number(out), nil
	}))
	m.Set("random", NewHostFunc(func(interp *Interp, _ Value, _ []Value) (Value, error) {
		return Number(interp.Random()), nil
	}))
	m.Set("PI", Number(math.Pi))
	m.Set("E", Number(math.E))
	return ObjectValue(m)
}

func jsonBuiltin() Value {
	j := NewObject()
	j.Grow(2)
	j.Set("stringify", NewHostFunc(func(_ *Interp, _ Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return Undefined, nil
		}
		return String(jsonStringify(args[0])), nil
	}))
	j.Set("parse", NewHostFunc(func(_ *Interp, _ Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return Undefined, Throw("SyntaxError", "JSON.parse: missing argument")
		}
		v, rest, err := jsonParse(strings.TrimSpace(args[0].ToString()), 0)
		if err == errJSONDepth {
			return Undefined, Throw("SyntaxError", "JSON.parse: nesting too deep")
		}
		if err != nil || strings.TrimSpace(rest) != "" {
			return Undefined, Throw("SyntaxError", "JSON.parse: invalid JSON")
		}
		return v, nil
	}))
	return ObjectValue(j)
}

func objectBuiltin() Value {
	o := NewObject()
	o.Grow(3)
	o.Set("keys", NewHostFunc(func(_ *Interp, _ Value, args []Value) (Value, error) {
		arr := NewArray()
		if len(args) > 0 && args[0].kind == KindObject {
			if args[0].obj.Class == ClassArray {
				for i := range args[0].obj.Elems {
					arr.Elems = append(arr.Elems, String(trimFloat(float64(i))))
				}
			} else {
				for _, k := range args[0].obj.Keys() {
					arr.Elems = append(arr.Elems, String(k))
				}
			}
		}
		return ObjectValue(arr), nil
	}))
	o.Set("values", NewHostFunc(func(_ *Interp, _ Value, args []Value) (Value, error) {
		arr := NewArray()
		if len(args) > 0 && args[0].kind == KindObject {
			for _, k := range args[0].obj.Keys() {
				arr.Elems = append(arr.Elems, args[0].obj.own(k))
			}
		}
		return ObjectValue(arr), nil
	}))
	o.Set("assign", NewHostFunc(func(_ *Interp, _ Value, args []Value) (Value, error) {
		if len(args) == 0 || args[0].kind != KindObject {
			return Undefined, nil
		}
		dst := args[0].obj
		for _, src := range args[1:] {
			if src.kind == KindObject {
				for _, k := range src.obj.Keys() {
					dst.Set(k, src.obj.own(k))
				}
			}
		}
		return args[0], nil
	}))
	return ObjectValue(o)
}

func arrayBuiltin() Value {
	a := NewObject()
	a.Class = ClassFunction
	a.host = func(_ *Interp, _ Value, args []Value) (Value, error) {
		if len(args) == 1 && args[0].kind == KindNumber {
			n := int(args[0].num)
			arr := NewArray()
			for i := 0; i < n; i++ {
				arr.Elems = append(arr.Elems, Undefined)
			}
			return ObjectValue(arr), nil
		}
		return ObjectValue(NewArray(args...)), nil
	}
	a.Set("isArray", NewHostFunc(func(_ *Interp, _ Value, args []Value) (Value, error) {
		return Bool(len(args) > 0 && args[0].kind == KindObject && args[0].obj.Class == ClassArray), nil
	}))
	a.Set("from", NewHostFunc(func(_ *Interp, _ Value, args []Value) (Value, error) {
		arr := NewArray()
		if len(args) > 0 {
			switch {
			case args[0].kind == KindObject && args[0].obj.Class == ClassArray:
				arr.Elems = append(arr.Elems, args[0].obj.Elems...)
			case args[0].kind == KindString:
				for _, r := range args[0].str {
					arr.Elems = append(arr.Elems, String(string(r)))
				}
			}
		}
		return ObjectValue(arr), nil
	}))
	return ObjectValue(a)
}

// dateBuiltin provides a Date constructor whose clock is the interpreter's
// Now hook, so the simulated browser's virtual time drives it. Supports:
// Date.now(), new Date().getTime(), and getTimezoneOffset (a fingerprint
// probe in the corpus).
func dateBuiltin() Value {
	dateObj := &Object{Class: ClassFunction}
	dateObj.host = func(interp *Interp, this Value, _ []Value) (Value, error) {
		obj := this.Object()
		if obj == nil {
			obj = NewObject()
		}
		now := interp.Now()
		obj.Set("getTime", NewHostFunc(func(_ *Interp, _ Value, _ []Value) (Value, error) {
			return Number(now), nil
		}))
		obj.Set("valueOf", NewHostFunc(func(_ *Interp, _ Value, _ []Value) (Value, error) {
			return Number(now), nil
		}))
		obj.Set("getTimezoneOffset", NewHostFunc(func(interp2 *Interp, _ Value, _ []Value) (Value, error) {
			if tz, ok := interp2.Global("__timezoneOffset"); ok {
				return tz, nil
			}
			return Number(0), nil
		}))
		obj.Set("toISOString", NewHostFunc(func(_ *Interp, _ Value, _ []Value) (Value, error) {
			return String("1970-01-01T00:00:00.000Z"), nil
		}))
		return ObjectValue(obj), nil
	}
	dateObj.Set("now", NewHostFunc(func(interp *Interp, _ Value, _ []Value) (Value, error) {
		return Number(interp.Now()), nil
	}))
	return ObjectValue(dateObj)
}

// regexpBuiltin provides `new RegExp(pattern, flags)` backed by Go's regexp
// package, supporting .test and .exec — enough for the victim-email
// validation patterns in the corpus.
func regexpBuiltin() Value {
	re := &Object{Class: ClassFunction}
	re.host = func(_ *Interp, this Value, args []Value) (Value, error) {
		pattern := ""
		flags := ""
		if len(args) > 0 {
			pattern = args[0].ToString()
		}
		if len(args) > 1 {
			flags = args[1].ToString()
		}
		goPattern := pattern
		if strings.Contains(flags, "i") {
			goPattern = "(?i)" + goPattern
		}
		compiled, err := regexp.Compile(goPattern)
		if err != nil {
			return Undefined, Throw("SyntaxError", "invalid regular expression: "+pattern)
		}
		obj := this.Object()
		if obj == nil {
			obj = NewObject()
		}
		obj.SetHostData(compiled)
		obj.Grow(4)
		obj.Set("source", String(pattern))
		obj.Set("flags", String(flags))
		obj.Set("test", NewHostFunc(func(_ *Interp, _ Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return False, nil
			}
			return Bool(compiled.MatchString(args[0].ToString())), nil
		}))
		obj.Set("exec", NewHostFunc(func(_ *Interp, _ Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return Null, nil
			}
			groups := compiled.FindStringSubmatch(args[0].ToString())
			if groups == nil {
				return Null, nil
			}
			arr := NewArray()
			for _, g := range groups {
				arr.Elems = append(arr.Elems, String(g))
			}
			return ObjectValue(arr), nil
		}))
		return ObjectValue(obj), nil
	}
	return ObjectValue(re)
}

// jsonStringify renders a value as JSON (subset: no cycles detection beyond
// a depth cap).
func jsonStringify(v Value) string {
	return jsonStringifyDepth(v, 0)
}

func jsonStringifyDepth(v Value, depth int) string {
	if depth > 32 {
		return "null"
	}
	switch v.kind {
	case KindString:
		return strconv.Quote(v.str)
	case KindNumber:
		if math.IsNaN(v.num) || math.IsInf(v.num, 0) {
			return "null"
		}
		return trimFloat(v.num)
	case KindBool:
		return v.ToString()
	case KindNull:
		return "null"
	case KindObject:
		switch v.obj.Class {
		case ClassArray:
			parts := make([]string, len(v.obj.Elems))
			for i, e := range v.obj.Elems {
				parts[i] = jsonStringifyDepth(e, depth+1)
			}
			return "[" + strings.Join(parts, ",") + "]"
		case ClassFunction:
			return "null"
		default:
			var parts []string
			for _, k := range v.obj.Keys() {
				pv := v.obj.own(k)
				if pv.kind == KindObject && pv.obj.Callable() {
					continue
				}
				if pv.IsUndefined() {
					continue
				}
				parts = append(parts, strconv.Quote(k)+":"+jsonStringifyDepth(pv, depth+1))
			}
			return "{" + strings.Join(parts, ",") + "}"
		}
	default:
		return "null" // undefined at top level; omitted inside objects
	}
}

// maxJSONDepth bounds the arrays and objects JSON.parse nests. jsonParse
// recurses once per level, so a string of two million '[' would otherwise
// overflow the Go stack and kill the process. The bound is about the depth
// of array literal the script parser admits (see maxNestingDepth).
// Measured on amd64 with Go 1.24, a parse that reaches it fits in a 4 MB Go
// stack.
const maxJSONDepth = 10_000

// jsonParse parses a JSON value nested depth levels deep, returning the
// remainder of the input.
func jsonParse(s string, depth int) (Value, string, error) {
	s = strings.TrimLeft(s, " \t\r\n")
	if s == "" {
		return Undefined, s, errJSON
	}
	if (s[0] == '{' || s[0] == '[') && depth >= maxJSONDepth {
		return Undefined, s, errJSONDepth
	}
	switch c := s[0]; {
	case c == '{':
		obj := NewObject()
		s = s[1:]
		s = strings.TrimLeft(s, " \t\r\n")
		if strings.HasPrefix(s, "}") {
			return ObjectValue(obj), s[1:], nil
		}
		for {
			s = strings.TrimLeft(s, " \t\r\n")
			if s == "" || s[0] != '"' {
				return Undefined, s, errJSON
			}
			key, rest, err := jsonParseString(s)
			if err != nil {
				return Undefined, s, err
			}
			s = strings.TrimLeft(rest, " \t\r\n")
			if !strings.HasPrefix(s, ":") {
				return Undefined, s, errJSON
			}
			val, rest2, err := jsonParse(s[1:], depth+1)
			if err != nil {
				return Undefined, s, err
			}
			obj.Set(key, val)
			s = strings.TrimLeft(rest2, " \t\r\n")
			if strings.HasPrefix(s, ",") {
				s = s[1:]
				continue
			}
			if strings.HasPrefix(s, "}") {
				return ObjectValue(obj), s[1:], nil
			}
			return Undefined, s, errJSON
		}
	case c == '[':
		arr := NewArray()
		s = s[1:]
		s = strings.TrimLeft(s, " \t\r\n")
		if strings.HasPrefix(s, "]") {
			return ObjectValue(arr), s[1:], nil
		}
		for {
			val, rest, err := jsonParse(s, depth+1)
			if err != nil {
				return Undefined, s, err
			}
			arr.Elems = append(arr.Elems, val)
			s = strings.TrimLeft(rest, " \t\r\n")
			if strings.HasPrefix(s, ",") {
				s = s[1:]
				continue
			}
			if strings.HasPrefix(s, "]") {
				return ObjectValue(arr), s[1:], nil
			}
			return Undefined, s, errJSON
		}
	case c == '"':
		str, rest, err := jsonParseString(s)
		return String(str), rest, err
	case strings.HasPrefix(s, "true"):
		return True, s[4:], nil
	case strings.HasPrefix(s, "false"):
		return False, s[5:], nil
	case strings.HasPrefix(s, "null"):
		return Null, s[4:], nil
	default:
		end := 0
		for end < len(s) && (s[end] == '-' || s[end] == '+' || s[end] == '.' ||
			s[end] == 'e' || s[end] == 'E' || s[end] >= '0' && s[end] <= '9') {
			end++
		}
		if end == 0 {
			return Undefined, s, errJSON
		}
		n, err := strconv.ParseFloat(s[:end], 64)
		if err != nil {
			return Undefined, s, errJSON
		}
		return Number(n), s[end:], nil
	}
}

var (
	errJSON      = &SyntaxError{Msg: "invalid JSON"}
	errJSONDepth = &SyntaxError{Msg: "JSON nested too deeply"}
)

func jsonParseString(s string) (string, string, error) {
	if s == "" || s[0] != '"' {
		return "", s, errJSON
	}
	var sb strings.Builder
	i := 1
	for i < len(s) {
		c := s[i]
		if c == '"' {
			return sb.String(), s[i+1:], nil
		}
		if c == '\\' && i+1 < len(s) {
			i++
			switch s[i] {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case 'r':
				sb.WriteByte('\r')
			case 'u':
				if i+4 < len(s) {
					var r rune
					for k := 1; k <= 4; k++ {
						r = r<<4 | rune(hexVal(s[i+k]))
					}
					sb.WriteRune(r)
					i += 4
				}
			default:
				sb.WriteByte(s[i])
			}
			i++
			continue
		}
		sb.WriteByte(c)
		i++
	}
	return "", s, errJSON
}
