package minijs

import (
	"errors"
	"fmt"
	"math"
)

// ErrFuelExhausted is returned when a script exceeds its execution budget.
// It is not catchable by script-level try/catch: hostile pages run infinite
// debugger loops precisely to stall analysis, and the interpreter must
// terminate them deterministically.
var ErrFuelExhausted = errors.New("minijs: execution fuel exhausted")

// DefaultFuel is the default execution budget (abstract operations).
const DefaultFuel = 2_000_000

// ErrCallDepth is returned when a script function call would nest deeper
// than maxEvalDepth allows. Like ErrFuelExhausted it is not catchable by
// script-level try/catch. Fuel bounds how long a script runs but not how
// deep it recurses, so unbounded recursion such as
// `function f(n){return f(n+1)} f(0)` would otherwise overflow the Go stack
// and kill the whole process.
var ErrCallDepth = errors.New("minijs: call stack depth exceeded")

// maxEvalDepth bounds the interpreter's recursion, and with it the Go
// stack, across script calls: a call is refused once this many statements
// and expressions are under evaluation, summed over every call in
// progress. Counting levels rather than calls also bounds recursion whose
// every call sits deep inside an expression. A recursive function spends
// two to five levels per call, so scripts recurse 10,000 to 25,000 calls
// deep, the order of a browser's call stack. Measured on amd64 with Go
// 1.24, unbounded recursion then stops within a 64 MB Go stack, or 128 MB
// when every call passes through a host function such as
// Array.prototype.map: far inside Go's 1 GB limit.
const maxEvalDepth = 50_000

// environment is a lexical scope. vars is nil until the scope's first
// binding: most block scopes declare nothing.
type environment struct {
	vars   map[string]Value
	parent *environment
}

func newEnvironment(parent *environment) *environment {
	return &environment{parent: parent}
}

// lookup resolves name from e outwards. A name that reaches the global
// scope unbound and names an embedder global or a standard builtin is
// built into that scope there (see builtin), so it reads, compares and
// shadows exactly as if it had been installed when the interpreter was
// made.
func (e *environment) lookup(ip *Interp, name string) (Value, bool) {
	env := e
	for {
		if v, ok := env.vars[name]; ok {
			return v, true
		}
		if env.parent == nil {
			return env.builtin(ip, name)
		}
		env = env.parent
	}
}

// builtin builds the global name into the global scope e: the value
// ip.Resolve supplies for it, or else the standard builtin of that name.
// It reports false when neither has the name. Building runs no script, so
// it burns no fuel.
func (e *environment) builtin(ip *Interp, name string) (Value, bool) {
	var v Value
	ok := false
	if ip.Resolve != nil {
		v, ok = ip.Resolve(name)
	}
	if !ok {
		mk, found := _builtins[name]
		if !found {
			return Undefined, false
		}
		v = mk()
	}
	e.define(name, v)
	return v, true
}

func (e *environment) assign(name string, v Value) bool {
	for env := e; env != nil; env = env.parent {
		if _, ok := env.vars[name]; ok {
			env.vars[name] = v
			return true
		}
	}
	return false
}

func (e *environment) define(name string, v Value) {
	if e.vars == nil {
		e.vars = map[string]Value{}
	}
	e.vars[name] = v
}

// Interp executes programs against a global environment.
type Interp struct {
	global *environment
	fuel   int64
	// granted is the fuel handed out so far: the initial budget plus every
	// AddFuel grant.
	granted int64
	depth   int // statements and expressions under evaluation, see maxEvalDepth
	// OnDebugger, when set, is invoked for every debugger statement — the
	// hook the anti-debugging timer checks in the corpus rely on.
	OnDebugger func()
	// Random supplies Math.random; defaults to a fixed sequence for
	// determinism. Embedders install a seeded source.
	Random func() float64
	// Now supplies Date.now() in milliseconds; defaults to a fixed epoch
	// that embedders (the simulated browser's virtual clock) override.
	Now func() float64
	// Resolve, when set, supplies the embedder's globals on demand. A
	// lookup that reaches the global scope unbound asks it before the
	// standard builtins, and a value it returns is bound there, so the
	// global reads, compares and shadows as if SetGlobal had installed it
	// when the interpreter was made: a script that assigns or declares the
	// name first never asks for it. Resolve is asked again for a name it
	// does not supply, so it must answer each name the same way every time.
	Resolve func(name string) (Value, bool)
}

// New returns an interpreter with the given fuel budget (DefaultFuel if
// <= 0). Its standard builtins are built on first use (see _builtins), and
// so are the embedder's globals when it sets Resolve.
func New(fuel int64) *Interp {
	if fuel <= 0 {
		fuel = DefaultFuel
	}
	ip := &Interp{
		global:  newEnvironment(nil),
		fuel:    fuel,
		granted: fuel,
		Random:  func() float64 { return 0.5 },
		Now:     func() float64 { return 1704067200000 }, // 2024-01-01T00:00:00Z
	}
	return ip
}

// SetGlobal defines a global binding.
func (ip *Interp) SetGlobal(name string, v Value) {
	ip.global.define(name, v)
}

// Global reads a global binding.
func (ip *Interp) Global(name string) (Value, bool) {
	return ip.global.lookup(ip, name)
}

// Fuel returns the remaining execution budget.
func (ip *Interp) Fuel() int64 { return ip.fuel }

// FuelSpent returns the execution budget consumed so far. Unlike Fuel, it
// never decreases: an AddFuel grant raises Fuel and leaves it unchanged.
func (ip *Interp) FuelSpent() int64 { return ip.granted - ip.fuel }

// AddFuel extends the execution budget (used by event-loop embedders that
// grant each timer callback its own slice).
func (ip *Interp) AddFuel(n int64) {
	ip.fuel += n
	ip.granted += n
}

// Run executes a parsed program.
func (ip *Interp) Run(prog *Program) error {
	_, err := ip.eval(prog)
	return err
}

// Eval parses and executes source, returning the value of the last
// expression statement. The Program comes from the process-wide cache, so
// a source seen before is not parsed again (see programCache).
func (ip *Interp) Eval(src string) (Value, error) {
	prog, err := _programs.compile(src)
	if err != nil {
		return Undefined, err
	}
	return ip.eval(prog)
}

// eval executes a parsed program, returning the value of the last
// expression statement.
func (ip *Interp) eval(prog *Program) (Value, error) {
	v, err := ip.runStmts(prog.stmts, ip.global)
	if ts, ok := err.(*throwSignal); ok {
		return Undefined, fmt.Errorf("minijs: uncaught exception: %s", ts.value.ToString())
	}
	return v, err
}

// CallFunction invokes a script or host function value from Go.
func (ip *Interp) CallFunction(fn Value, this Value, args []Value) (Value, error) {
	v, err := ip.call(fn, this, args, 0)
	if ts, ok := err.(*throwSignal); ok {
		return Undefined, fmt.Errorf("minijs: uncaught exception: %s", ts.value.ToString())
	}
	return v, err
}

// Throw constructs a script-catchable exception from Go host code.
func Throw(name, message string) error {
	obj := NewObject()
	obj.Class = ClassError
	obj.Set("name", String(name))
	obj.Set("message", String(message))
	return &throwSignal{value: ObjectValue(obj)}
}

// Control-flow signals travel as errors.
type (
	breakSignal    struct{}
	continueSignal struct{}
	returnSignal   struct{ value Value }
	throwSignal    struct{ value Value }
)

func (*breakSignal) Error() string    { return "break outside loop" }
func (*continueSignal) Error() string { return "continue outside loop" }
func (*returnSignal) Error() string   { return "return outside function" }
func (t *throwSignal) Error() string  { return "uncaught: " + t.value.ToString() }

func (ip *Interp) burn() error {
	ip.fuel--
	if ip.fuel <= 0 {
		return ErrFuelExhausted
	}
	return nil
}

func (ip *Interp) runStmts(stmts []stmt, env *environment) (Value, error) {
	// Hoist function declarations.
	for _, s := range stmts {
		if fd, ok := s.(*funcDeclStmt); ok {
			env.define(fd.Name, ip.makeFunction(fd.Fn, env, nil))
		}
	}
	var last Value
	for _, s := range stmts {
		v, err := ip.execStmt(s, env)
		if err != nil {
			return Undefined, err
		}
		if v.kind != 0 {
			last = v
		}
	}
	return last, nil
}

// execStmt executes one statement; expression statements yield their value.
// It counts the statement's level for maxEvalDepth around exec: with this
// many returns, a deferred decrement would not be open-coded and would
// cost more than the count.
func (ip *Interp) execStmt(s stmt, env *environment) (Value, error) {
	if err := ip.burn(); err != nil {
		return Undefined, err
	}
	ip.depth++
	v, err := ip.exec(s, env)
	ip.depth--
	return v, err
}

func (ip *Interp) exec(s stmt, env *environment) (Value, error) {
	switch n := s.(type) {
	case *emptyStmt:
		return Undefined, nil
	case *varStmt:
		for i, name := range n.Names {
			var v Value
			if n.Inits[i] != nil {
				var err error
				v, err = ip.evalExpr(n.Inits[i], env)
				if err != nil {
					return Undefined, err
				}
			} else {
				v = Undefined
			}
			env.define(name, v)
		}
		return Undefined, nil
	case *funcDeclStmt:
		return Undefined, nil // hoisted
	case *exprStmt:
		return ip.evalExpr(n.E, env)
	case *blockStmt:
		inner := newEnvironment(env)
		_, err := ip.runStmts(n.Stmts, inner)
		return Undefined, err
	case *ifStmt:
		cond, err := ip.evalExpr(n.Cond, env)
		if err != nil {
			return Undefined, err
		}
		if cond.Truthy() {
			return ip.execStmt(n.Then, env)
		}
		if n.Else != nil {
			return ip.execStmt(n.Else, env)
		}
		return Undefined, nil
	case *whileStmt:
		for {
			cond, err := ip.evalExpr(n.Cond, env)
			if err != nil {
				return Undefined, err
			}
			if !cond.Truthy() {
				return Undefined, nil
			}
			if stop, err := ip.loopBody(n.Body, env); stop || err != nil {
				return Undefined, err
			}
		}
	case *doWhileStmt:
		for {
			if stop, err := ip.loopBody(n.Body, env); stop || err != nil {
				return Undefined, err
			}
			cond, err := ip.evalExpr(n.Cond, env)
			if err != nil {
				return Undefined, err
			}
			if !cond.Truthy() {
				return Undefined, nil
			}
		}
	case *forStmt:
		inner := newEnvironment(env)
		if n.Init != nil {
			if _, err := ip.execStmt(n.Init, inner); err != nil {
				return Undefined, err
			}
		}
		for {
			if n.Cond != nil {
				cond, err := ip.evalExpr(n.Cond, inner)
				if err != nil {
					return Undefined, err
				}
				if !cond.Truthy() {
					return Undefined, nil
				}
			}
			if stop, err := ip.loopBody(n.Body, inner); stop || err != nil {
				return Undefined, err
			}
			if n.Post != nil {
				if _, err := ip.evalExpr(n.Post, inner); err != nil {
					return Undefined, err
				}
			}
		}
	case *forInStmt:
		obj, err := ip.evalExpr(n.Obj, env)
		if err != nil {
			return Undefined, err
		}
		inner := newEnvironment(env)
		inner.define(n.Name, Undefined)
		var items []Value
		switch {
		case obj.kind == KindObject && obj.obj.Class == ClassArray:
			if n.Of {
				items = append(items, obj.obj.Elems...)
			} else {
				for i := range obj.obj.Elems {
					items = append(items, String(trimFloat(float64(i))))
				}
			}
		case obj.kind == KindObject:
			for _, k := range obj.obj.Keys() {
				if n.Of {
					items = append(items, obj.obj.Props[k])
				} else {
					items = append(items, String(k))
				}
			}
		case obj.kind == KindString && n.Of:
			for _, r := range obj.str {
				items = append(items, String(string(r)))
			}
		}
		for _, item := range items {
			inner.vars[n.Name] = item
			if stop, err := ip.loopBody(n.Body, inner); stop || err != nil {
				return Undefined, err
			}
		}
		return Undefined, nil
	case *returnStmt:
		var v Value
		if n.Value != nil {
			var err error
			v, err = ip.evalExpr(n.Value, env)
			if err != nil {
				return Undefined, err
			}
		} else {
			v = Undefined
		}
		return Undefined, &returnSignal{value: v}
	case *breakStmt:
		return Undefined, &breakSignal{}
	case *continueStmt:
		return Undefined, &continueSignal{}
	case *throwStmt:
		v, err := ip.evalExpr(n.Value, env)
		if err != nil {
			return Undefined, err
		}
		return Undefined, &throwSignal{value: v}
	case *tryStmt:
		_, err := ip.execStmt(n.Block, env)
		if ts, ok := err.(*throwSignal); ok && n.Catch != nil {
			inner := newEnvironment(env)
			if n.CatchName != "" {
				inner.define(n.CatchName, ts.value)
			}
			_, err = ip.runStmts(n.Catch.Stmts, inner)
		}
		if n.Finally != nil {
			if _, ferr := ip.execStmt(n.Finally, env); ferr != nil {
				return Undefined, ferr
			}
		}
		return Undefined, err
	case *debuggerStmt:
		if ip.OnDebugger != nil {
			ip.OnDebugger()
		}
		return Undefined, nil
	case *switchStmt:
		subject, err := ip.evalExpr(n.Subject, env)
		if err != nil {
			return Undefined, err
		}
		inner := newEnvironment(env)
		matched := false
		defaultIdx := -1
		for idx, c := range n.Cases {
			if c.Test == nil {
				defaultIdx = idx
				continue
			}
			if !matched {
				v, err := ip.evalExpr(c.Test, inner)
				if err != nil {
					return Undefined, err
				}
				matched = StrictEquals(subject, v)
			}
			if matched {
				if stop, err := ip.runSwitchBody(n.Cases[idx:], inner); stop || err != nil {
					return Undefined, err
				}
				return Undefined, nil
			}
		}
		if defaultIdx >= 0 {
			if _, err := ip.runSwitchBody(n.Cases[defaultIdx:], inner); err != nil {
				return Undefined, err
			}
		}
		return Undefined, nil
	default:
		return Undefined, fmt.Errorf("minijs: unhandled statement %T", s)
	}
}

// runSwitchBody executes case bodies with fall-through until a break.
// stop=true means a break terminated the switch.
func (ip *Interp) runSwitchBody(cases []switchCase, env *environment) (bool, error) {
	for _, c := range cases {
		for _, s := range c.Body {
			_, err := ip.execStmt(s, env)
			if _, ok := err.(*breakSignal); ok {
				return true, nil
			}
			if err != nil {
				return false, err
			}
		}
	}
	return false, nil
}

// loopBody executes a loop body, translating break/continue signals.
// stop=true means break.
func (ip *Interp) loopBody(body stmt, env *environment) (bool, error) {
	_, err := ip.execStmt(body, env)
	switch err.(type) {
	case *breakSignal:
		return true, nil
	case *continueSignal:
		return false, nil
	}
	return false, err
}

func (ip *Interp) makeFunction(fn *funcLit, env *environment, boundThis *Value) Value {
	return ObjectValue(&Object{
		Class:     ClassFunction,
		fn:        fn,
		env:       env,
		boundThis: boundThis,
	})
}

// evalExpr evaluates one expression and counts its level for
// maxEvalDepth. It is the only caller of evalExprThis and is inlined.
func (ip *Interp) evalExpr(e expr, env *environment) (Value, error) {
	ip.depth++
	v, err := ip.evalExprThis(e, env, Undefined)
	ip.depth--
	return v, err
}

func (ip *Interp) evalExprThis(e expr, env *environment, this Value) (Value, error) {
	if err := ip.burn(); err != nil {
		return Undefined, err
	}
	switch n := e.(type) {
	case *numberLit:
		return Number(n.Value), nil
	case *stringLit:
		return String(n.Value), nil
	case *boolLit:
		return Bool(n.Value), nil
	case *nullLit:
		return Null, nil
	case *undefLit:
		return Undefined, nil
	case *thisExpr:
		if v, ok := env.lookup(ip, "this"); ok {
			return v, nil
		}
		return Undefined, nil
	case *identExpr:
		if v, ok := env.lookup(ip, n.Name); ok {
			return v, nil
		}
		return Undefined, &throwSignal{value: errorValue("ReferenceError", n.Name+" is not defined")}
	case *arrayLit:
		arr := NewArray()
		for _, el := range n.Elems {
			v, err := ip.evalExpr(el, env)
			if err != nil {
				return Undefined, err
			}
			arr.Elems = append(arr.Elems, v)
		}
		return ObjectValue(arr), nil
	case *objectLit:
		obj := NewObject()
		for i, key := range n.Keys {
			v, err := ip.evalExpr(n.Values[i], env)
			if err != nil {
				return Undefined, err
			}
			obj.Set(key, v)
		}
		return ObjectValue(obj), nil
	case *funcLit:
		if n.Arrow {
			captured, _ := env.lookup(ip, "this")
			return ip.makeFunction(n, env, &captured), nil
		}
		return ip.makeFunction(n, env, nil), nil
	case *unaryExpr:
		return ip.evalUnary(n, env)
	case *updateExpr:
		return ip.evalUpdate(n, env)
	case *binaryExpr:
		return ip.evalBinary(n, env)
	case *logicalExpr:
		left, err := ip.evalExpr(n.Left, env)
		if err != nil {
			return Undefined, err
		}
		switch n.Op {
		case "&&":
			if !left.Truthy() {
				return left, nil
			}
		case "||":
			if left.Truthy() {
				return left, nil
			}
		case "??":
			if !left.IsNullish() {
				return left, nil
			}
		}
		return ip.evalExpr(n.Right, env)
	case *condExpr:
		cond, err := ip.evalExpr(n.Cond, env)
		if err != nil {
			return Undefined, err
		}
		if cond.Truthy() {
			return ip.evalExpr(n.Then, env)
		}
		return ip.evalExpr(n.Else, env)
	case *assignExpr:
		return ip.evalAssign(n, env)
	case *seqExpr:
		var last Value
		for _, sub := range n.Exprs {
			v, err := ip.evalExpr(sub, env)
			if err != nil {
				return Undefined, err
			}
			last = v
		}
		return last, nil
	case *memberExpr:
		objVal, err := ip.evalExpr(n.Obj, env)
		if err != nil {
			return Undefined, err
		}
		prop, err := ip.propName(n, env)
		if err != nil {
			return Undefined, err
		}
		return ip.getMember(objVal, prop)
	case *callExpr:
		return ip.evalCall(n, env)
	case *newExpr:
		callee, err := ip.evalExpr(n.Callee, env)
		if err != nil {
			return Undefined, err
		}
		args, err := ip.evalArgs(n.Args, env)
		if err != nil {
			return Undefined, err
		}
		return ip.construct(callee, args)
	default:
		return Undefined, fmt.Errorf("minijs: unhandled expression %T", e)
	}
}

func (ip *Interp) propName(n *memberExpr, env *environment) (string, error) {
	if !n.Computed {
		return n.Prop.(*stringLit).Value, nil
	}
	v, err := ip.evalExpr(n.Prop, env)
	if err != nil {
		return "", err
	}
	return v.ToString(), nil
}

func (ip *Interp) evalArgs(args []expr, env *environment) ([]Value, error) {
	out := make([]Value, 0, len(args))
	for _, a := range args {
		v, err := ip.evalExpr(a, env)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func (ip *Interp) evalCall(n *callExpr, env *environment) (Value, error) {
	// Method call: capture the receiver.
	if mem, ok := n.Callee.(*memberExpr); ok {
		objVal, err := ip.evalExpr(mem.Obj, env)
		if err != nil {
			return Undefined, err
		}
		prop, err := ip.propName(mem, env)
		if err != nil {
			return Undefined, err
		}
		fn, err := ip.getMember(objVal, prop)
		if err != nil {
			return Undefined, err
		}
		args, err := ip.evalArgs(n.Args, env)
		if err != nil {
			return Undefined, err
		}
		if fn.kind != KindObject || !fn.obj.Callable() {
			return Undefined, &throwSignal{value: errorValue("TypeError",
				fmt.Sprintf("%s is not a function (line %d)", prop, n.Line))}
		}
		return ip.call(fn, objVal, args, n.Line)
	}
	fn, err := ip.evalExpr(n.Callee, env)
	if err != nil {
		return Undefined, err
	}
	args, err := ip.evalArgs(n.Args, env)
	if err != nil {
		return Undefined, err
	}
	if fn.kind != KindObject || !fn.obj.Callable() {
		return Undefined, &throwSignal{value: errorValue("TypeError",
			fmt.Sprintf("value is not a function (line %d)", n.Line))}
	}
	return ip.call(fn, Undefined, args, n.Line)
}

func (ip *Interp) call(fn Value, this Value, args []Value, line int) (Value, error) {
	if err := ip.burn(); err != nil {
		return Undefined, err
	}
	o := fn.obj
	if o == nil {
		return Undefined, &throwSignal{value: errorValue("TypeError", "not callable")}
	}
	if o.host != nil {
		return o.host(ip, this, args)
	}
	if o.fn == nil {
		return Undefined, &throwSignal{value: errorValue("TypeError", "not callable")}
	}
	if ip.depth >= maxEvalDepth {
		return Undefined, ErrCallDepth
	}
	callEnv := newEnvironment(o.env)
	effectiveThis := this
	if o.boundThis != nil {
		effectiveThis = *o.boundThis
	}
	callEnv.define("this", effectiveThis)
	for i, p := range o.fn.Params {
		if i < len(args) {
			callEnv.define(p, args[i])
		} else {
			callEnv.define(p, Undefined)
		}
	}
	argsArr := NewArray(args...)
	callEnv.define("arguments", ObjectValue(argsArr))
	_, err := ip.runStmts(o.fn.Body.Stmts, callEnv)
	if rs, ok := err.(*returnSignal); ok {
		return rs.value, nil
	}
	if err != nil {
		return Undefined, err
	}
	return Undefined, nil
}

// construct implements `new`.
func (ip *Interp) construct(callee Value, args []Value) (Value, error) {
	if callee.kind != KindObject || !callee.obj.Callable() {
		return Undefined, &throwSignal{value: errorValue("TypeError", "not a constructor")}
	}
	instance := NewObject()
	result, err := ip.call(callee, ObjectValue(instance), args, 0)
	if err != nil {
		return Undefined, err
	}
	if result.kind == KindObject {
		return result, nil
	}
	return ObjectValue(instance), nil
}

func (ip *Interp) evalUnary(n *unaryExpr, env *environment) (Value, error) {
	if n.Op == "delete" {
		if mem, ok := n.Operand.(*memberExpr); ok {
			objVal, err := ip.evalExpr(mem.Obj, env)
			if err != nil {
				return Undefined, err
			}
			prop, err := ip.propName(mem, env)
			if err != nil {
				return Undefined, err
			}
			if objVal.kind == KindObject {
				objVal.obj.Delete(prop)
			}
			return True, nil
		}
		return True, nil
	}
	if n.Op == "typeof" {
		// typeof of an undefined identifier must not throw.
		if id, ok := n.Operand.(*identExpr); ok {
			if v, found := env.lookup(ip, id.Name); found {
				return String(v.TypeOf()), nil
			}
			return String("undefined"), nil
		}
	}
	v, err := ip.evalExpr(n.Operand, env)
	if err != nil {
		return Undefined, err
	}
	switch n.Op {
	case "!":
		return Bool(!v.Truthy()), nil
	case "-":
		return Number(-v.ToNumber()), nil
	case "+":
		return Number(v.ToNumber()), nil
	case "~":
		return Number(float64(^toInt32(v.ToNumber()))), nil
	case "typeof":
		return String(v.TypeOf()), nil
	case "void":
		return Undefined, nil
	default:
		return Undefined, fmt.Errorf("minijs: unhandled unary operator %q", n.Op)
	}
}

func (ip *Interp) evalUpdate(n *updateExpr, env *environment) (Value, error) {
	old, err := ip.evalExpr(n.Operand, env)
	if err != nil {
		return Undefined, err
	}
	delta := 1.0
	if n.Op == "--" {
		delta = -1
	}
	updated := Number(old.ToNumber() + delta)
	if err := ip.assignTo(n.Operand, updated, env); err != nil {
		return Undefined, err
	}
	if n.Prefix {
		return updated, nil
	}
	return Number(old.ToNumber()), nil
}

func (ip *Interp) evalAssign(n *assignExpr, env *environment) (Value, error) {
	val, err := ip.evalExpr(n.Value, env)
	if err != nil {
		return Undefined, err
	}
	if n.Op != "=" {
		old, err := ip.evalExpr(n.Target, env)
		if err != nil {
			return Undefined, err
		}
		op := n.Op[:len(n.Op)-1]
		val, err = applyBinary(op, old, val)
		if err != nil {
			return Undefined, err
		}
	}
	if err := ip.assignTo(n.Target, val, env); err != nil {
		return Undefined, err
	}
	return val, nil
}

func (ip *Interp) assignTo(target expr, val Value, env *environment) error {
	switch t := target.(type) {
	case *identExpr:
		if !env.assign(t.Name, val) {
			// Implicit global, as sloppy-mode JS does.
			ip.global.define(t.Name, val)
		}
		return nil
	case *memberExpr:
		objVal, err := ip.evalExpr(t.Obj, env)
		if err != nil {
			return err
		}
		prop, err := ip.propName(t, env)
		if err != nil {
			return err
		}
		return ip.setMember(objVal, prop, val)
	default:
		return &throwSignal{value: errorValue("SyntaxError", "invalid assignment target")}
	}
}

func (ip *Interp) evalBinary(n *binaryExpr, env *environment) (Value, error) {
	left, err := ip.evalExpr(n.Left, env)
	if err != nil {
		return Undefined, err
	}
	right, err := ip.evalExpr(n.Right, env)
	if err != nil {
		return Undefined, err
	}
	if n.Op == "in" {
		if right.kind == KindObject {
			return Bool(right.obj.Has(left.ToString())), nil
		}
		return False, nil
	}
	if n.Op == "instanceof" {
		// Approximate: error values are instanceof Error, everything else false.
		return Bool(left.kind == KindObject && left.obj.Class == ClassError), nil
	}
	return applyBinary(n.Op, left, right)
}

func applyBinary(op string, left, right Value) (Value, error) {
	switch op {
	case "+":
		if left.kind == KindString || right.kind == KindString ||
			(left.kind == KindObject && left.obj.Class != ClassFunction) ||
			(right.kind == KindObject && right.obj.Class != ClassFunction) {
			return String(left.ToString() + right.ToString()), nil
		}
		return Number(left.ToNumber() + right.ToNumber()), nil
	case "-":
		return Number(left.ToNumber() - right.ToNumber()), nil
	case "*":
		return Number(left.ToNumber() * right.ToNumber()), nil
	case "/":
		return Number(left.ToNumber() / right.ToNumber()), nil
	case "%":
		return Number(math.Mod(left.ToNumber(), right.ToNumber())), nil
	case "==":
		return Bool(LooseEquals(left, right)), nil
	case "!=":
		return Bool(!LooseEquals(left, right)), nil
	case "===":
		return Bool(StrictEquals(left, right)), nil
	case "!==":
		return Bool(!StrictEquals(left, right)), nil
	case "<", ">", "<=", ">=":
		if left.kind == KindString && right.kind == KindString {
			switch op {
			case "<":
				return Bool(left.str < right.str), nil
			case ">":
				return Bool(left.str > right.str), nil
			case "<=":
				return Bool(left.str <= right.str), nil
			default:
				return Bool(left.str >= right.str), nil
			}
		}
		a, b := left.ToNumber(), right.ToNumber()
		if math.IsNaN(a) || math.IsNaN(b) {
			return False, nil
		}
		switch op {
		case "<":
			return Bool(a < b), nil
		case ">":
			return Bool(a > b), nil
		case "<=":
			return Bool(a <= b), nil
		default:
			return Bool(a >= b), nil
		}
	case "&":
		return Number(float64(toInt32(left.ToNumber()) & toInt32(right.ToNumber()))), nil
	case "|":
		return Number(float64(toInt32(left.ToNumber()) | toInt32(right.ToNumber()))), nil
	case "^":
		return Number(float64(toInt32(left.ToNumber()) ^ toInt32(right.ToNumber()))), nil
	case "<<":
		return Number(float64(toInt32(left.ToNumber()) << (uint32(toInt32(right.ToNumber())) & 31))), nil
	case ">>":
		return Number(float64(toInt32(left.ToNumber()) >> (uint32(toInt32(right.ToNumber())) & 31))), nil
	case ">>>":
		return Number(float64(uint32(toInt32(left.ToNumber())) >> (uint32(toInt32(right.ToNumber())) & 31))), nil
	default:
		return Undefined, fmt.Errorf("minijs: unhandled binary operator %q", op)
	}
}

func toInt32(f float64) int32 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return int32(int64(f))
}

func errorValue(name, message string) Value {
	obj := NewObject()
	obj.Class = ClassError
	obj.Set("name", String(name))
	obj.Set("message", String(message))
	return ObjectValue(obj)
}
