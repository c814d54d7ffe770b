// Package quel implements the QUEL subset of §2.3: range declarations,
// retrieve/append/delete/replace statements over the working-memory
// relations, and — the paper's motivating case — commands tagged ALWAYS,
// which "conceptually appear to run indefinitely" and are translated into
// productions so the match machinery maintains them as triggers.
//
// The paper's example becomes executable as written:
//
//	range of E is Emp
//	replace ALWAYS Emp (salary = E.salary)
//	    where Emp.name = "Mike" and E.name = "Sam"
//
// translates to the production
//
//	(p quel-always-1
//	    (Emp ^salary <q0> ^name Sam)
//	    (Emp ^name Mike ^salary <> <q0>)
//	  -->
//	    (modify 2 ^salary <q0>))
//
// whose not-equal guard both detects violations and guarantees
// quiescence once the trigger's invariant holds. Ad-hoc retrieve, delete
// and replace statements go through the same lowering, into a production
// with an empty RHS that the rule planner runs once.
package quel

import (
	"fmt"
	"strconv"
	"strings"

	"prodsys/internal/value"
)

// StmtKind classifies statements.
type StmtKind uint8

// The statement kinds.
const (
	StmtCreate StmtKind = iota
	StmtRange
	StmtRetrieve
	StmtAppend
	StmtDelete
	StmtReplace
)

// String names the kind.
func (k StmtKind) String() string {
	switch k {
	case StmtCreate:
		return "create"
	case StmtRange:
		return "range"
	case StmtRetrieve:
		return "retrieve"
	case StmtAppend:
		return "append"
	case StmtDelete:
		return "delete"
	case StmtReplace:
		return "replace"
	default:
		return fmt.Sprintf("StmtKind(%d)", uint8(k))
	}
}

// Operand is a qualification operand: a var.attr reference or a constant.
type Operand struct {
	Var   string // non-empty for attribute references
	Attr  string
	Const value.V
}

// IsRef reports whether the operand is a var.attr reference.
func (o Operand) IsRef() bool { return o.Var != "" }

// String renders the operand.
func (o Operand) String() string {
	if o.IsRef() {
		return o.Var + "." + o.Attr
	}
	return o.Const.String()
}

// Cond is one qualification conjunct: Left Op Right.
type Cond struct {
	Left  Operand
	Op    value.Op
	Right Operand
}

// Assign sets one attribute in append/replace.
type Assign struct {
	Attr string
	Expr Operand
}

// Stmt is one parsed QUEL statement.
type Stmt struct {
	Kind    StmtKind
	Always  bool      // replace/delete/append ALWAYS
	Class   string    // create/append: relation name; range: relation
	Var     string    // range: variable; delete/replace: target variable
	Attrs   []string  // create: attribute names
	Targets []Operand // retrieve: target list (refs only)
	Assigns []Assign  // append/replace
	Quals   []Cond    // where clause, conjunctive
	Src     string    // original text, for diagnostics
}

// ---------------------------------------------------------------------
// Lexing

type token struct {
	kind string // "ident", "num", "str", "punct", "eof"
	text string
	num  value.V
}

type lexer struct {
	src string
	pos int
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && (l.src[l.pos] == ' ' || l.src[l.pos] == '\t' || l.src[l.pos] == '\n' || l.src[l.pos] == '\r') {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: "eof"}, nil
	}
	c := l.src[l.pos]
	switch {
	case c == '(' || c == ')' || c == ',' || c == '.':
		l.pos++
		return token{kind: "punct", text: string(c)}, nil
	case c == '=':
		l.pos++
		return token{kind: "punct", text: "="}, nil
	case c == '!':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.pos += 2
			return token{kind: "punct", text: "!="}, nil
		}
		return token{}, fmt.Errorf("quel: stray '!'")
	case c == '<':
		if l.pos+1 < len(l.src) && (l.src[l.pos+1] == '=' || l.src[l.pos+1] == '>') {
			t := l.src[l.pos : l.pos+2]
			l.pos += 2
			return token{kind: "punct", text: t}, nil
		}
		l.pos++
		return token{kind: "punct", text: "<"}, nil
	case c == '>':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.pos += 2
			return token{kind: "punct", text: ">="}, nil
		}
		l.pos++
		return token{kind: "punct", text: ">"}, nil
	case c == '"' || c == '\'':
		quote := c
		end := l.pos + 1
		for end < len(l.src) && l.src[end] != quote {
			end++
		}
		if end >= len(l.src) {
			return token{}, fmt.Errorf("quel: unterminated string")
		}
		text := l.src[l.pos+1 : end]
		l.pos = end + 1
		return token{kind: "str", text: text}, nil
	case c == '-' || (c >= '0' && c <= '9'):
		start := l.pos
		l.pos++
		for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9' || l.src[l.pos] == '.') {
			// A '.' followed by a non-digit is a field separator, not a
			// decimal point.
			if l.src[l.pos] == '.' && (l.pos+1 >= len(l.src) || l.src[l.pos+1] < '0' || l.src[l.pos+1] > '9') {
				break
			}
			l.pos++
		}
		text := l.src[start:l.pos]
		if strings.Contains(text, ".") {
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return token{}, fmt.Errorf("quel: bad number %q", text)
			}
			return token{kind: "num", num: value.OfFloat(f)}, nil
		}
		i, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return token{}, fmt.Errorf("quel: bad number %q", text)
		}
		return token{kind: "num", num: value.OfInt(i)}, nil
	default:
		start := l.pos
		for l.pos < len(l.src) && isIdentChar(l.src[l.pos]) {
			l.pos++
		}
		if l.pos == start {
			return token{}, fmt.Errorf("quel: unexpected character %q", c)
		}
		return token{kind: "ident", text: l.src[start:l.pos]}, nil
	}
}

func isIdentChar(c byte) bool {
	return c == '_' ||
		c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// ---------------------------------------------------------------------
// Parsing

type parser struct {
	toks []token
	pos  int
	src  string
}

func lexAll(src string) ([]token, error) {
	l := &lexer{src: src}
	var out []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		if t.kind == "eof" {
			return out, nil
		}
		out = append(out, t)
	}
}

func (p *parser) cur() token {
	if p.pos >= len(p.toks) {
		return token{kind: "eof"}
	}
	return p.toks[p.pos]
}

func (p *parser) advance() token {
	t := p.cur()
	p.pos++
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("quel: %s (in %q)", fmt.Sprintf(format, args...), p.src)
}

func (p *parser) expectIdent(words ...string) (string, error) {
	t := p.advance()
	if t.kind != "ident" {
		return "", p.errf("expected identifier, found %q", t.text)
	}
	if len(words) == 0 {
		return t.text, nil
	}
	for _, w := range words {
		if strings.EqualFold(t.text, w) {
			return w, nil
		}
	}
	return "", p.errf("expected %v, found %q", words, t.text)
}

func (p *parser) expectPunct(text string) error {
	t := p.advance()
	if t.kind != "punct" || t.text != text {
		return p.errf("expected %q, found %q", text, t.text)
	}
	return nil
}

// Parse parses one QUEL statement.
func Parse(src string) (*Stmt, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, fmt.Errorf("%v (in %q)", err, src)
	}
	p := &parser{toks: toks, src: strings.TrimSpace(src)}
	head := p.advance()
	if head.kind != "ident" {
		return nil, p.errf("expected a statement keyword")
	}
	st := &Stmt{Src: p.src}
	switch strings.ToLower(head.text) {
	case "create":
		return p.parseCreate(st)
	case "range":
		return p.parseRange(st)
	case "retrieve":
		return p.parseRetrieve(st)
	case "append":
		return p.parseAppend(st)
	case "delete":
		return p.parseDelete(st)
	case "replace":
		return p.parseReplace(st)
	default:
		return nil, p.errf("unknown statement %q", head.text)
	}
}

func (p *parser) parseCreate(st *Stmt) (*Stmt, error) {
	st.Kind = StmtCreate
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st.Class = name
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		attr, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		st.Attrs = append(st.Attrs, attr)
		t := p.advance()
		if t.kind == "punct" && t.text == ")" {
			return st, p.expectEOF()
		}
		if t.kind != "punct" || t.text != "," {
			return nil, p.errf("expected ',' or ')' in create")
		}
	}
}

func (p *parser) parseRange(st *Stmt) (*Stmt, error) {
	st.Kind = StmtRange
	if _, err := p.expectIdent("of"); err != nil {
		return nil, err
	}
	v, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectIdent("is"); err != nil {
		return nil, err
	}
	cls, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st.Var, st.Class = v, cls
	return st, p.expectEOF()
}

func (p *parser) parseRetrieve(st *Stmt) (*Stmt, error) {
	st.Kind = StmtRetrieve
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		op, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		if !op.IsRef() {
			return nil, p.errf("retrieve targets must be var.attr references")
		}
		st.Targets = append(st.Targets, op)
		t := p.advance()
		if t.kind == "punct" && t.text == ")" {
			break
		}
		if t.kind != "punct" || t.text != "," {
			return nil, p.errf("expected ',' or ')' in target list")
		}
	}
	return st, p.parseWhere(st)
}

func (p *parser) parseAppend(st *Stmt) (*Stmt, error) {
	st.Kind = StmtAppend
	if t := p.cur(); t.kind == "ident" && strings.EqualFold(t.text, "always") {
		p.advance()
		st.Always = true
	}
	if t := p.cur(); t.kind == "ident" && strings.EqualFold(t.text, "to") {
		p.advance()
	}
	cls, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st.Class = cls
	if err := p.parseAssigns(st); err != nil {
		return nil, err
	}
	return st, p.parseWhere(st)
}

func (p *parser) parseDelete(st *Stmt) (*Stmt, error) {
	st.Kind = StmtDelete
	if t := p.cur(); t.kind == "ident" && strings.EqualFold(t.text, "always") {
		p.advance()
		st.Always = true
	}
	v, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st.Var = v
	return st, p.parseWhere(st)
}

func (p *parser) parseReplace(st *Stmt) (*Stmt, error) {
	st.Kind = StmtReplace
	if t := p.cur(); t.kind == "ident" && strings.EqualFold(t.text, "always") {
		p.advance()
		st.Always = true
	}
	v, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st.Var = v
	if err := p.parseAssigns(st); err != nil {
		return nil, err
	}
	return st, p.parseWhere(st)
}

func (p *parser) parseAssigns(st *Stmt) error {
	if err := p.expectPunct("("); err != nil {
		return err
	}
	for {
		attr, err := p.expectIdent()
		if err != nil {
			return err
		}
		if err := p.expectPunct("="); err != nil {
			return err
		}
		expr, err := p.parseOperand()
		if err != nil {
			return err
		}
		st.Assigns = append(st.Assigns, Assign{Attr: attr, Expr: expr})
		t := p.advance()
		if t.kind == "punct" && t.text == ")" {
			return nil
		}
		if t.kind != "punct" || t.text != "," {
			return p.errf("expected ',' or ')' in assignment list")
		}
	}
}

func (p *parser) parseWhere(st *Stmt) error {
	t := p.cur()
	if t.kind == "eof" {
		return nil
	}
	if t.kind != "ident" || !strings.EqualFold(t.text, "where") {
		return p.errf("expected 'where' or end of statement, found %q", t.text)
	}
	p.advance()
	for {
		left, err := p.parseOperand()
		if err != nil {
			return err
		}
		opTok := p.advance()
		if opTok.kind != "punct" {
			return p.errf("expected comparison operator, found %q", opTok.text)
		}
		op, ok := value.ParseOp(opTok.text)
		if !ok {
			return p.errf("unknown operator %q", opTok.text)
		}
		right, err := p.parseOperand()
		if err != nil {
			return err
		}
		st.Quals = append(st.Quals, Cond{Left: left, Op: op, Right: right})
		t = p.cur()
		if t.kind == "eof" {
			return nil
		}
		if t.kind == "ident" && strings.EqualFold(t.text, "and") {
			p.advance()
			continue
		}
		return p.errf("expected 'and' or end of statement, found %q", t.text)
	}
}

func (p *parser) parseOperand() (Operand, error) {
	t := p.advance()
	switch t.kind {
	case "num":
		return Operand{Const: t.num}, nil
	case "str":
		return Operand{Const: value.OfSym(t.text)}, nil
	case "ident":
		if p.cur().kind == "punct" && p.cur().text == "." {
			p.advance()
			attr, err := p.expectIdent()
			if err != nil {
				return Operand{}, err
			}
			return Operand{Var: t.text, Attr: attr}, nil
		}
		return Operand{Const: value.OfSym(t.text)}, nil
	default:
		return Operand{}, p.errf("expected an operand, found %q", t.text)
	}
}

func (p *parser) expectEOF() error {
	if p.cur().kind != "eof" {
		return p.errf("trailing input after statement")
	}
	return nil
}

// SplitStatements splits a QUEL script into statements: each statement
// starts at a line whose first word is a statement keyword; continuation
// lines (e.g. a where clause) attach to the preceding statement. Lines
// starting with '#' or '--' are comments.
func SplitStatements(script string) []string {
	keywords := map[string]bool{
		"create": true, "range": true, "retrieve": true,
		"append": true, "delete": true, "replace": true,
	}
	var out []string
	var cur strings.Builder
	flush := func() {
		if s := strings.TrimSpace(cur.String()); s != "" {
			out = append(out, s)
		}
		cur.Reset()
	}
	for _, line := range strings.Split(script, "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") || strings.HasPrefix(trimmed, "--") {
			continue
		}
		first := strings.ToLower(strings.FieldsFunc(trimmed, func(r rune) bool {
			return r == ' ' || r == '\t' || r == '('
		})[0])
		if keywords[first] {
			flush()
		}
		cur.WriteString(line)
		cur.WriteByte('\n')
	}
	flush()
	return out
}
