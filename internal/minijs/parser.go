package minijs

import (
	"errors"
	"fmt"
)

// ErrNestingDepth is returned when source nests statements or expressions
// deeper than maxNestingDepth. The parser is recursive descent, so 200,000
// nested parentheses would otherwise overflow the Go stack and kill the
// whole process; like ErrFuelExhausted, the bound turns hostile input into
// an ordinary error.
var ErrNestingDepth = errors.New("minijs: nesting depth limit exceeded")

// maxNestingDepth bounds the parser's recursion. A level is one statement,
// assignment, unary or primary production in progress, so one pair of
// parentheses costs three and the bound admits nearly 10,000 nested
// parentheses. Measured on amd64 with Go 1.24, a parse that hits the bound
// stays within a 64 MB Go stack, far inside Go's 1 GB limit.
const maxNestingDepth = 30_000

// Parse compiles source text into a Program.
func Parse(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var stmts []stmt
	for !p.at(tokEOF) {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	return &Program{stmts: stmts}, nil
}

type parser struct {
	toks  []token
	pos   int
	depth int // recursive productions in progress, see maxNestingDepth
}

// enter starts one more level of recursion, or fails without starting it
// once maxNestingDepth levels are in progress. A production that entered
// calls leave when it returns.
func (p *parser) enter() error {
	if p.depth >= maxNestingDepth {
		return ErrNestingDepth
	}
	p.depth++
	return nil
}

func (p *parser) leave() { p.depth-- }

// cur returns the current token. The lexer always terminates the stream
// with tokEOF, but a parse path that consumes EOF (hostile input reaching a
// production that unconditionally advances) must see EOF again rather than
// run off the slice.
func (p *parser) cur() token {
	if p.pos >= len(p.toks) {
		return token{kind: tokEOF}
	}
	return p.toks[p.pos]
}

func (p *parser) next() token {
	t := p.cur()
	if p.pos < len(p.toks) {
		p.pos++
	}
	return t
}

func (p *parser) at(kind tokenKind) bool { return p.cur().kind == kind }

func (p *parser) atPunct(text string) bool {
	return p.cur().kind == tokPunct && p.cur().text == text
}

func (p *parser) atKeyword(text string) bool {
	return p.cur().kind == tokKeyword && p.cur().text == text
}

func (p *parser) eatPunct(text string) bool {
	if p.atPunct(text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) eatKeyword(text string) bool {
	if p.atKeyword(text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectPunct(text string) error {
	if !p.eatPunct(text) {
		return &SyntaxError{Line: p.cur().line, Msg: fmt.Sprintf("expected %q, found %q", text, p.cur().text)}
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	if p.cur().kind != tokIdent {
		return "", &SyntaxError{Line: p.cur().line, Msg: fmt.Sprintf("expected identifier, found %q", p.cur().text)}
	}
	return p.next().text, nil
}

// eatSemi consumes an optional statement-terminating semicolon.
func (p *parser) eatSemi() {
	p.eatPunct(";")
}

func (p *parser) statement() (stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	switch {
	case p.atPunct(";"):
		p.pos++
		return &emptyStmt{}, nil
	case p.atPunct("{"):
		return p.block()
	case t.kind == tokKeyword:
		switch t.text {
		case "var", "let", "const":
			return p.varStatement()
		case "function":
			p.pos++
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			fn, err := p.funcRest(false)
			if err != nil {
				return nil, err
			}
			return &funcDeclStmt{Name: name, Fn: fn}, nil
		case "if":
			return p.ifStatement()
		case "while":
			return p.whileStatement()
		case "do":
			return p.doWhileStatement()
		case "for":
			return p.forStatement()
		case "return":
			p.pos++
			var val expr
			if !p.atPunct(";") && !p.atPunct("}") && !p.at(tokEOF) {
				var err error
				val, err = p.expression()
				if err != nil {
					return nil, err
				}
			}
			p.eatSemi()
			return &returnStmt{Value: val}, nil
		case "break":
			p.pos++
			p.eatSemi()
			return &breakStmt{}, nil
		case "continue":
			p.pos++
			p.eatSemi()
			return &continueStmt{}, nil
		case "try":
			return p.tryStatement()
		case "throw":
			p.pos++
			val, err := p.expression()
			if err != nil {
				return nil, err
			}
			p.eatSemi()
			return &throwStmt{Value: val}, nil
		case "debugger":
			line := p.next().line
			p.eatSemi()
			return &debuggerStmt{Line: line}, nil
		case "switch":
			return p.switchStatement()
		}
	}
	e, err := p.expression()
	if err != nil {
		return nil, err
	}
	p.eatSemi()
	return &exprStmt{E: e}, nil
}

func (p *parser) block() (*blockStmt, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var stmts []stmt
	for !p.atPunct("}") && !p.at(tokEOF) {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	if err := p.expectPunct("}"); err != nil {
		return nil, err
	}
	return &blockStmt{Stmts: stmts, decls: declared(stmts)}, nil
}

func (p *parser) varStatement() (stmt, error) {
	kind := p.next().text
	line := p.cur().line
	out := &varStmt{Kind: kind, Line: line}
	for {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		out.Names = append(out.Names, name)
		if p.eatPunct("=") {
			init, err := p.assignment()
			if err != nil {
				return nil, err
			}
			out.Inits = append(out.Inits, init)
		} else {
			out.Inits = append(out.Inits, nil)
		}
		if !p.eatPunct(",") {
			break
		}
	}
	p.eatSemi()
	return out, nil
}

func (p *parser) ifStatement() (stmt, error) {
	p.pos++ // if
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	then, err := p.statement()
	if err != nil {
		return nil, err
	}
	var els stmt
	if p.eatKeyword("else") {
		els, err = p.statement()
		if err != nil {
			return nil, err
		}
	}
	return &ifStmt{Cond: cond, Then: then, Else: els}, nil
}

func (p *parser) whileStatement() (stmt, error) {
	p.pos++ // while
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	return &whileStmt{Cond: cond, Body: body}, nil
}

func (p *parser) doWhileStatement() (stmt, error) {
	p.pos++ // do
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	if !p.eatKeyword("while") {
		return nil, &SyntaxError{Line: p.cur().line, Msg: "expected 'while' after do body"}
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	p.eatSemi()
	return &doWhileStmt{Cond: cond, Body: body}, nil
}

func (p *parser) forStatement() (stmt, error) {
	p.pos++ // for
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	// Possible for-in / for-of.
	save := p.pos
	decl := ""
	if p.atKeyword("var") || p.atKeyword("let") || p.atKeyword("const") {
		decl = p.next().text
	}
	if p.cur().kind == tokIdent {
		name := p.cur().text
		if p.toks[p.pos+1].kind == tokKeyword &&
			(p.toks[p.pos+1].text == "in" || p.toks[p.pos+1].text == "of") {
			p.pos += 2
			of := p.toks[p.pos-1].text == "of"
			obj, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			body, err := p.statement()
			if err != nil {
				return nil, err
			}
			return &forInStmt{Decl: decl, Name: name, Of: of, Obj: obj, Body: body, decls: 1 + bound(body)}, nil
		}
	}
	p.pos = save
	// Classic for.
	var initStmt stmt
	if !p.atPunct(";") {
		if p.atKeyword("var") || p.atKeyword("let") || p.atKeyword("const") {
			s, err := p.varStatement() // consumes its semicolon
			if err != nil {
				return nil, err
			}
			initStmt = s
		} else {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			initStmt = &exprStmt{E: e}
			p.eatSemi()
		}
	} else {
		p.pos++
	}
	var cond expr
	if !p.atPunct(";") {
		var err error
		cond, err = p.expression()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	var post expr
	if !p.atPunct(")") {
		var err error
		post, err = p.expression()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	decls := bound(body)
	if initStmt != nil {
		decls += bound(initStmt)
	}
	return &forStmt{Init: initStmt, Cond: cond, Post: post, Body: body, decls: decls}, nil
}

func (p *parser) tryStatement() (stmt, error) {
	p.pos++ // try
	block, err := p.block()
	if err != nil {
		return nil, err
	}
	out := &tryStmt{Block: block}
	if p.eatKeyword("catch") {
		if p.eatPunct("(") {
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			out.CatchName = name
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
		}
		out.Catch, err = p.block()
		if err != nil {
			return nil, err
		}
	}
	if p.eatKeyword("finally") {
		out.Finally, err = p.block()
		if err != nil {
			return nil, err
		}
	}
	if out.Catch == nil && out.Finally == nil {
		return nil, &SyntaxError{Line: p.cur().line, Msg: "try without catch or finally"}
	}
	if out.Catch != nil {
		out.catchDecls = out.Catch.decls
		if out.CatchName != "" {
			out.catchDecls++
		}
	}
	return out, nil
}

func (p *parser) switchStatement() (stmt, error) {
	p.pos++ // switch
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	subject, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	out := &switchStmt{Subject: subject}
	for !p.atPunct("}") && !p.at(tokEOF) {
		var test expr
		switch {
		case p.eatKeyword("case"):
			test, err = p.expression()
			if err != nil {
				return nil, err
			}
		case p.eatKeyword("default"):
			test = nil
		default:
			return nil, &SyntaxError{Line: p.cur().line, Msg: "expected case or default"}
		}
		if err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		var body []stmt
		for !p.atPunct("}") && !p.atKeyword("case") && !p.atKeyword("default") && !p.at(tokEOF) {
			s, err := p.statement()
			if err != nil {
				return nil, err
			}
			body = append(body, s)
		}
		out.Cases = append(out.Cases, switchCase{Test: test, Body: body})
		for _, s := range body {
			out.decls += bound(s)
		}
	}
	if err := p.expectPunct("}"); err != nil {
		return nil, err
	}
	return out, nil
}

// funcRest parses "(params) { body }" after the function keyword and name.
func (p *parser) funcRest(arrow bool) (*funcLit, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var params []string
	for !p.atPunct(")") {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		params = append(params, name)
		if !p.eatPunct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return newFuncLit(params, body, arrow), nil
}

// Expression parsing: precedence climbing.

func (p *parser) expression() (expr, error) {
	first, err := p.assignment()
	if err != nil {
		return nil, err
	}
	if !p.atPunct(",") {
		return first, nil
	}
	exprs := []expr{first}
	for p.eatPunct(",") {
		e, err := p.assignment()
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, e)
	}
	return &seqExpr{Exprs: exprs}, nil
}

func (p *parser) assignment() (expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	// Arrow function lookahead: ident => or (params) =>.
	if e, ok, err := p.tryArrow(); err != nil {
		return nil, err
	} else if ok {
		return e, nil
	}
	left, err := p.conditional()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="} {
		if p.atPunct(op) {
			p.pos++
			right, err := p.assignment()
			if err != nil {
				return nil, err
			}
			switch left.(type) {
			case *identExpr, *memberExpr:
				return &assignExpr{Op: op, Target: left, Value: right}, nil
			default:
				return nil, &SyntaxError{Line: p.cur().line, Msg: "invalid assignment target"}
			}
		}
	}
	return left, nil
}

// tryArrow attempts to parse an arrow function at the current position.
func (p *parser) tryArrow() (expr, bool, error) {
	save := p.pos
	// ident => expr|block
	if p.cur().kind == tokIdent && p.toks[p.pos+1].kind == tokPunct && p.toks[p.pos+1].text == "=>" {
		param := p.next().text
		p.pos++ // =>
		body, err := p.arrowBody()
		if err != nil {
			return nil, false, err
		}
		return newFuncLit([]string{param}, body, true), true, nil
	}
	// (a, b) => ...: a parameter list holds only identifiers and commas,
	// so the scan for its ")" stops at the first other token. (A scan to
	// the matching parenthesis would be quadratic in nested parentheses.)
	if p.atPunct("(") {
		i := p.pos + 1
		for i < len(p.toks) && (p.toks[i].kind == tokIdent || p.toks[i].kind == tokPunct && p.toks[i].text == ",") {
			i++
		}
		isPunct := func(j int, text string) bool {
			return j < len(p.toks) && p.toks[j].kind == tokPunct && p.toks[j].text == text
		}
		if isPunct(i, ")") && isPunct(i+1, "=>") {
			p.pos++ // (
			var params []string
			for !p.atPunct(")") {
				name, err := p.expectIdent()
				if err != nil {
					p.pos = save
					return nil, false, nil
				}
				params = append(params, name)
				if !p.eatPunct(",") {
					break
				}
			}
			if err := p.expectPunct(")"); err != nil {
				p.pos = save
				return nil, false, nil
			}
			if !p.eatPunct("=>") {
				p.pos = save
				return nil, false, nil
			}
			body, err := p.arrowBody()
			if err != nil {
				return nil, false, err
			}
			return newFuncLit(params, body, true), true, nil
		}
	}
	return nil, false, nil
}

func (p *parser) arrowBody() (*blockStmt, error) {
	if p.atPunct("{") {
		return p.block()
	}
	e, err := p.assignment()
	if err != nil {
		return nil, err
	}
	return &blockStmt{Stmts: []stmt{&returnStmt{Value: e}}}, nil
}

func (p *parser) conditional() (expr, error) {
	cond, err := p.logicalOr()
	if err != nil {
		return nil, err
	}
	if !p.eatPunct("?") {
		return cond, nil
	}
	then, err := p.assignment()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	els, err := p.assignment()
	if err != nil {
		return nil, err
	}
	return &condExpr{Cond: cond, Then: then, Else: els}, nil
}

func (p *parser) logicalOr() (expr, error) {
	left, err := p.logicalAnd()
	if err != nil {
		return nil, err
	}
	for p.atPunct("||") || p.atPunct("??") {
		op := p.next().text
		right, err := p.logicalAnd()
		if err != nil {
			return nil, err
		}
		left = &logicalExpr{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) logicalAnd() (expr, error) {
	left, err := p.bitwiseOr()
	if err != nil {
		return nil, err
	}
	for p.atPunct("&&") {
		p.pos++
		right, err := p.bitwiseOr()
		if err != nil {
			return nil, err
		}
		left = &logicalExpr{Op: "&&", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) bitwiseOr() (expr, error)  { return p.binaryLevel([]string{"|"}, p.bitwiseXor) }
func (p *parser) bitwiseXor() (expr, error) { return p.binaryLevel([]string{"^"}, p.bitwiseAnd) }
func (p *parser) bitwiseAnd() (expr, error) { return p.binaryLevel([]string{"&"}, p.equality) }

func (p *parser) equality() (expr, error) {
	return p.binaryLevel([]string{"===", "!==", "==", "!="}, p.relational)
}

func (p *parser) relational() (expr, error) {
	left, err := p.binaryLevel([]string{"<", ">", "<=", ">="}, p.shift)
	if err != nil {
		return nil, err
	}
	for p.atKeyword("instanceof") || p.atKeyword("in") {
		op := p.next().text
		right, err := p.shift()
		if err != nil {
			return nil, err
		}
		left = &binaryExpr{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) shift() (expr, error) {
	return p.binaryLevel([]string{"<<", ">>", ">>>"}, p.additive)
}

func (p *parser) additive() (expr, error) {
	return p.binaryLevel([]string{"+", "-"}, p.multiplicative)
}

func (p *parser) multiplicative() (expr, error) {
	return p.binaryLevel([]string{"*", "/", "%"}, p.unary)
}

func (p *parser) binaryLevel(ops []string, next func() (expr, error)) (expr, error) {
	left, err := next()
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, op := range ops {
			if p.atPunct(op) {
				p.pos++
				right, err := next()
				if err != nil {
					return nil, err
				}
				left = &binaryExpr{Op: op, Left: left, Right: right}
				matched = true
				break
			}
		}
		if !matched {
			return left, nil
		}
	}
}

func (p *parser) unary() (expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	switch {
	case p.atPunct("!") || p.atPunct("-") || p.atPunct("+") || p.atPunct("~"):
		op := p.next().text
		operand, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{Op: op, Operand: operand}, nil
	case p.atKeyword("typeof") || p.atKeyword("void") || p.atKeyword("delete"):
		op := p.next().text
		operand, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{Op: op, Operand: operand}, nil
	case p.atPunct("++") || p.atPunct("--"):
		op := p.next().text
		operand, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &updateExpr{Op: op, Prefix: true, Operand: operand}, nil
	}
	return p.postfix()
}

func (p *parser) postfix() (expr, error) {
	e, err := p.callMember()
	if err != nil {
		return nil, err
	}
	if p.atPunct("++") || p.atPunct("--") {
		op := p.next().text
		return &updateExpr{Op: op, Prefix: false, Operand: e}, nil
	}
	return e, nil
}

func (p *parser) callMember() (expr, error) {
	var e expr
	var err error
	if p.atKeyword("new") {
		p.pos++
		callee, err := p.callMemberNoCall()
		if err != nil {
			return nil, err
		}
		var args []expr
		if p.atPunct("(") {
			args, err = p.argList()
			if err != nil {
				return nil, err
			}
		}
		e = &newExpr{Callee: callee, Args: args}
	} else {
		e, err = p.primary()
		if err != nil {
			return nil, err
		}
	}
	return p.memberTail(e)
}

// callMemberNoCall parses a member chain without consuming a trailing call,
// for `new Foo.Bar(...)`.
func (p *parser) callMemberNoCall() (expr, error) {
	e, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.atPunct("."):
			p.pos++
			name, err := p.memberName()
			if err != nil {
				return nil, err
			}
			e = &memberExpr{Obj: e, Prop: &stringLit{Value: name}}
		case p.atPunct("["):
			p.pos++
			idx, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			e = &memberExpr{Obj: e, Prop: idx, Computed: true}
		default:
			return e, nil
		}
	}
}

func (p *parser) memberTail(e expr) (expr, error) {
	for {
		switch {
		case p.atPunct("."):
			p.pos++
			name, err := p.memberName()
			if err != nil {
				return nil, err
			}
			e = &memberExpr{Obj: e, Prop: &stringLit{Value: name}}
		case p.atPunct("["):
			p.pos++
			idx, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			e = &memberExpr{Obj: e, Prop: idx, Computed: true}
		case p.atPunct("("):
			line := p.cur().line
			args, err := p.argList()
			if err != nil {
				return nil, err
			}
			e = &callExpr{Callee: e, Args: args, Line: line}
		default:
			return e, nil
		}
	}
}

// memberName accepts identifiers and keywords as property names (e.g.
// window.new is invalid JS but obj.in/obj.delete occur in minified code).
func (p *parser) memberName() (string, error) {
	t := p.cur()
	if t.kind == tokIdent || t.kind == tokKeyword {
		p.pos++
		return t.text, nil
	}
	return "", &SyntaxError{Line: t.line, Msg: fmt.Sprintf("expected property name, found %q", t.text)}
}

func (p *parser) argList() ([]expr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var args []expr
	for !p.atPunct(")") {
		a, err := p.assignment()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if !p.eatPunct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return args, nil
}

func (p *parser) primary() (expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.pos++
		return &numberLit{Value: t.num}, nil
	case tokString:
		p.pos++
		return &stringLit{Value: t.text}, nil
	case tokIdent:
		p.pos++
		return &identExpr{Name: t.text, Line: t.line}, nil
	case tokKeyword:
		switch t.text {
		case "true", "false":
			p.pos++
			return &boolLit{Value: t.text == "true"}, nil
		case "null":
			p.pos++
			return &nullLit{}, nil
		case "undefined":
			p.pos++
			return &undefLit{}, nil
		case "this":
			p.pos++
			return &thisExpr{}, nil
		case "function":
			p.pos++
			// Optional name (ignored; named function expressions are rare
			// in the cloaking corpus).
			if p.cur().kind == tokIdent {
				p.pos++
			}
			return p.funcRest(false)
		case "new":
			return p.callMember()
		}
	case tokPunct:
		switch t.text {
		case "(":
			p.pos++
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		case "[":
			p.pos++
			var elems []expr
			for !p.atPunct("]") {
				e, err := p.assignment()
				if err != nil {
					return nil, err
				}
				elems = append(elems, e)
				if !p.eatPunct(",") {
					break
				}
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			return &arrayLit{Elems: elems}, nil
		case "{":
			p.pos++
			obj := &objectLit{}
			for !p.atPunct("}") {
				var key string
				kt := p.cur()
				switch kt.kind {
				case tokIdent, tokKeyword, tokString:
					key = kt.text
					p.pos++
				case tokNumber:
					key = trimFloat(kt.num)
					p.pos++
				default:
					return nil, &SyntaxError{Line: kt.line, Msg: "expected property key"}
				}
				if err := p.expectPunct(":"); err != nil {
					return nil, err
				}
				val, err := p.assignment()
				if err != nil {
					return nil, err
				}
				obj.Keys = append(obj.Keys, key)
				obj.Values = append(obj.Values, val)
				if !p.eatPunct(",") {
					break
				}
			}
			if err := p.expectPunct("}"); err != nil {
				return nil, err
			}
			return obj, nil
		}
	}
	return nil, &SyntaxError{Line: t.line, Msg: fmt.Sprintf("unexpected token %q", t.text)}
}
