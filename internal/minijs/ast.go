package minijs

// Statement nodes.

type stmt interface{ stmtNode() }

type (
	varStmt struct {
		Kind  string // var, let, const
		Names []string
		Inits []expr // nil entries for bare declarations
		Line  int
	}
	funcDeclStmt struct {
		Name string
		Fn   *funcLit
	}
	exprStmt struct {
		E expr
	}
	ifStmt struct {
		Cond expr
		Then stmt
		Else stmt // may be nil
	}
	whileStmt struct {
		Cond expr
		Body stmt
	}
	doWhileStmt struct {
		Cond expr
		Body stmt
	}
	forStmt struct {
		Init stmt // may be nil (varStmt or exprStmt)
		Cond expr // may be nil
		Post expr // may be nil
		Body stmt
		// decls is how many names Init and Body bind in the loop's
		// scope, see bound.
		decls int
	}
	forInStmt struct {
		Decl string // "", "var", "let", "const"
		Name string
		Of   bool // for-of vs for-in
		Obj  expr
		Body stmt
		// decls is how many names the loop's scope binds: Name and what
		// Body binds.
		decls int
	}
	returnStmt struct {
		Value expr // may be nil
	}
	breakStmt    struct{}
	continueStmt struct{}
	blockStmt    struct {
		Stmts []stmt
		// decls is how many names Stmts bind in the block's scope, see
		// declared. A block that binds none runs in the enclosing scope.
		decls int
	}
	tryStmt struct {
		Block     *blockStmt
		CatchName string
		Catch     *blockStmt // may be nil
		Finally   *blockStmt // may be nil
		// catchDecls is how many names the catch clause's scope binds:
		// CatchName and what Catch binds.
		catchDecls int
	}
	throwStmt struct {
		Value expr
	}
	debuggerStmt struct {
		Line int
	}
	switchStmt struct {
		Subject expr
		Cases   []switchCase
		// decls is how many names the case bodies bind in the switch's
		// scope.
		decls int
	}
	emptyStmt struct{}
)

// switchCase is one case (or default, when Test is nil) clause.
// declared counts the names that running stmts as a scope's statement
// list binds in that scope: the hoisted function declarations and what
// each statement binds (see bound). A name bound twice counts twice, so
// the count is an upper bound that is exact for distinct names.
func declared(stmts []stmt) int {
	n := 0
	for _, s := range stmts {
		if _, ok := s.(*funcDeclStmt); ok {
			n++
		} else {
			n += bound(s)
		}
	}
	return n
}

// bound counts the names executing s binds in the scope it runs in: a var
// statement's names, also inside if, while and do-while bodies, which run
// in the same scope. Blocks, loops with their own scope, try, switch and
// function literals bind in scopes of their own, and a function
// declaration that is not in a statement list is never hoisted, so they
// count 0.
func bound(s stmt) int {
	switch s := s.(type) {
	case *varStmt:
		return len(s.Names)
	case *ifStmt:
		n := bound(s.Then)
		if s.Else != nil {
			n += bound(s.Else)
		}
		return n
	case *whileStmt:
		return bound(s.Body)
	case *doWhileStmt:
		return bound(s.Body)
	}
	return 0
}

// newFuncLit returns a function literal with its call scope size.
func newFuncLit(params []string, body *blockStmt, arrow bool) *funcLit {
	size := len(params) + 1 + body.decls // + arguments
	if !arrow {
		size++ // this
	}
	return &funcLit{Params: params, Body: body, Arrow: arrow, scopeSize: size}
}

type switchCase struct {
	Test expr // nil for default
	Body []stmt
}

func (*varStmt) stmtNode()      {}
func (*funcDeclStmt) stmtNode() {}
func (*exprStmt) stmtNode()     {}
func (*ifStmt) stmtNode()       {}
func (*whileStmt) stmtNode()    {}
func (*doWhileStmt) stmtNode()  {}
func (*forStmt) stmtNode()      {}
func (*forInStmt) stmtNode()    {}
func (*returnStmt) stmtNode()   {}
func (*breakStmt) stmtNode()    {}
func (*continueStmt) stmtNode() {}
func (*blockStmt) stmtNode()    {}
func (*tryStmt) stmtNode()      {}
func (*throwStmt) stmtNode()    {}
func (*debuggerStmt) stmtNode() {}
func (*switchStmt) stmtNode()   {}
func (*emptyStmt) stmtNode()    {}

// Expression nodes.

type expr interface{ exprNode() }

type (
	numberLit struct{ Value float64 }
	stringLit struct{ Value string }
	boolLit   struct{ Value bool }
	nullLit   struct{}
	undefLit  struct{}
	identExpr struct {
		Name string
		Line int
	}
	thisExpr  struct{}
	arrayLit  struct{ Elems []expr }
	objectLit struct {
		Keys   []string
		Values []expr
	}
	funcLit struct {
		Params []string
		Body   *blockStmt
		Arrow  bool
		// scopeSize is how many names a call's scope binds: this (not for
		// an arrow), the parameters, arguments and what Body binds.
		scopeSize int
	}
	unaryExpr struct {
		Op      string // ! - + typeof void delete ~
		Operand expr
	}
	updateExpr struct {
		Op      string // ++ --
		Prefix  bool
		Operand expr
	}
	binaryExpr struct {
		Op          string
		Left, Right expr
	}
	logicalExpr struct {
		Op          string // && || ??
		Left, Right expr
	}
	condExpr struct {
		Cond, Then, Else expr
	}
	assignExpr struct {
		Op     string // = += -= *= /= %=
		Target expr   // identExpr or memberExpr
		Value  expr
	}
	callExpr struct {
		Callee expr
		Args   []expr
		Line   int
	}
	newExpr struct {
		Callee expr
		Args   []expr
	}
	memberExpr struct {
		Obj      expr
		Prop     expr // stringLit for dot access, arbitrary for [..]
		Computed bool
	}
	seqExpr struct {
		Exprs []expr
	}
)

func (*numberLit) exprNode()   {}
func (*stringLit) exprNode()   {}
func (*boolLit) exprNode()     {}
func (*nullLit) exprNode()     {}
func (*undefLit) exprNode()    {}
func (*identExpr) exprNode()   {}
func (*thisExpr) exprNode()    {}
func (*arrayLit) exprNode()    {}
func (*objectLit) exprNode()   {}
func (*funcLit) exprNode()     {}
func (*unaryExpr) exprNode()   {}
func (*updateExpr) exprNode()  {}
func (*binaryExpr) exprNode()  {}
func (*logicalExpr) exprNode() {}
func (*condExpr) exprNode()    {}
func (*assignExpr) exprNode()  {}
func (*callExpr) exprNode()    {}
func (*newExpr) exprNode()     {}
func (*memberExpr) exprNode()  {}
func (*seqExpr) exprNode()     {}

// Program is a parsed script.
type Program struct {
	stmts []stmt
}
