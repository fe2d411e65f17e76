// Package idl implements a parser for the IDL subset the paper's interfaces
// are written in (Figs. 1 and 2), and a run-time interface repository.
//
// CORBA clients normally compile IDL to stubs; the paper's LuaCorba instead
// consults interface metadata at run time to type-check dynamic invocations
// (DII) and to drive dynamic skeletons (DSI). This package plays that role:
// servers register their interfaces, and the ORB can optionally validate
// operation names, arity, and argument kinds before dispatch.
//
// Supported syntax:
//
//	interface Name [: Base1, Base2] {
//	    [oneway] RetType opName(in Type arg, in Type arg2);
//	    readonly attribute Type attrName;   // becomes a getter operation
//	};
//	typedef Type Name;
//
// Types map onto wire kinds: void, boolean, double/long/float (number),
// string, any (any kind), Object (objref), sequence<T> and struct-ish
// "table" (both table). Unknown named types default to any unless a typedef
// says otherwise.
package idl

import (
	"fmt"
	"strings"
	"sync"

	"autoadapt/internal/wire"
)

// TypeKind classifies an IDL type for dynamic checking.
type TypeKind int

// Type kinds.
const (
	TypeVoid TypeKind = iota + 1
	TypeBool
	TypeNumber
	TypeString
	TypeAny
	TypeObject
	TypeTable
)

// String names the type kind in IDL-ish vocabulary.
func (t TypeKind) String() string {
	switch t {
	case TypeVoid:
		return "void"
	case TypeBool:
		return "boolean"
	case TypeNumber:
		return "double"
	case TypeString:
		return "string"
	case TypeAny:
		return "any"
	case TypeObject:
		return "Object"
	case TypeTable:
		return "table"
	default:
		return fmt.Sprintf("TypeKind(%d)", int(t))
	}
}

// Accepts reports whether a wire value of kind k is acceptable for the type.
func (t TypeKind) Accepts(k wire.Kind) bool {
	switch t {
	case TypeAny:
		return true
	case TypeVoid:
		return k == wire.KindNil
	case TypeBool:
		return k == wire.KindBool || k == wire.KindNil
	case TypeNumber:
		return k == wire.KindNumber
	case TypeString:
		return k == wire.KindString || k == wire.KindBytes
	case TypeObject:
		return k == wire.KindObjRef || k == wire.KindNil
	case TypeTable:
		return k == wire.KindTable || k == wire.KindNil
	default:
		return false
	}
}

// Param is one operation parameter.
type Param struct {
	Name string
	Type TypeKind
}

// Operation describes one interface operation.
type Operation struct {
	Name   string
	Oneway bool
	Ret    TypeKind
	Params []Param
}

// Interface is a parsed interface definition.
type Interface struct {
	Name  string
	Bases []string
	Ops   map[string]*Operation
}

// Repository is a thread-safe interface repository.
type Repository struct {
	mu         sync.RWMutex
	interfaces map[string]*Interface
	typedefs   map[string]TypeKind
}

// NewRepository returns an empty repository.
func NewRepository() *Repository {
	return &Repository{
		interfaces: make(map[string]*Interface),
		typedefs:   make(map[string]TypeKind),
	}
}

// LoadIDL parses src and registers every interface and typedef found.
// Interfaces may reference bases registered earlier or later; resolution
// happens at lookup time.
func (r *Repository) LoadIDL(src string) error {
	p := &parser{src: src, line: 1, repo: r}
	return p.parse()
}

// Register adds an interface directly (used by Go-defined services).
func (r *Repository) Register(i *Interface) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.interfaces[i.Name] = i
}

// ResolveOp finds operation op on interface name, searching base interfaces
// depth-first. It returns nil if the interface or operation is unknown.
func (r *Repository) ResolveOp(name, op string) *Operation {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.resolveOpLocked(name, op, map[string]bool{})
}

func (r *Repository) resolveOpLocked(name, op string, seen map[string]bool) *Operation {
	if seen[name] {
		return nil
	}
	seen[name] = true
	iface, ok := r.interfaces[name]
	if !ok {
		return nil
	}
	if o, ok := iface.Ops[op]; ok {
		return o
	}
	for _, b := range iface.Bases {
		if o := r.resolveOpLocked(b, op, seen); o != nil {
			return o
		}
	}
	return nil
}

// CheckCall validates an invocation against interface metadata: the
// operation must exist (anywhere in the inheritance chain) and each argument
// must be acceptable for the declared parameter type. Missing trailing
// arguments are treated as nil. It returns the resolved operation so the
// caller can honor oneway declarations.
func (r *Repository) CheckCall(iface, op string, args []wire.Value) (*Operation, error) {
	o := r.ResolveOp(iface, op)
	if o == nil {
		return nil, &BadCallError{Interface: iface, Op: op, Msg: "no such operation"}
	}
	if len(args) > len(o.Params) {
		return nil, &BadCallError{Interface: iface, Op: op,
			Msg: fmt.Sprintf("too many arguments: got %d, want %d", len(args), len(o.Params))}
	}
	for i, p := range o.Params {
		var k wire.Kind // nil for missing trailing args
		if i < len(args) {
			k = args[i].Kind()
		}
		if k == wire.KindNil {
			continue // nil is accepted everywhere except it never reaches Accepts for required semantics
		}
		if !p.Type.Accepts(k) {
			return nil, &BadCallError{Interface: iface, Op: op,
				Msg: fmt.Sprintf("argument %d (%s): have %s, want %s", i+1, p.Name, k, p.Type)}
		}
	}
	return o, nil
}

// BadCallError reports a dynamic type-check failure.
type BadCallError struct {
	Interface string
	Op        string
	Msg       string
}

// Error implements error.
func (e *BadCallError) Error() string {
	return fmt.Sprintf("idl: %s::%s: %s", e.Interface, e.Op, e.Msg)
}

// ---- parser ----

type parser struct {
	src  string
	pos  int
	line int
	repo *Repository
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("idl:%d: %s", p.line, fmt.Sprintf(format, args...))
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch {
		case c == '\n':
			p.line++
			p.pos++
		case c == ' ' || c == '\t' || c == '\r':
			p.pos++
		case c == '/' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '/':
			for p.pos < len(p.src) && p.src[p.pos] != '\n' {
				p.pos++
			}
		case c == '/' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '*':
			p.pos += 2
			for p.pos+1 < len(p.src) && !(p.src[p.pos] == '*' && p.src[p.pos+1] == '/') {
				if p.src[p.pos] == '\n' {
					p.line++
				}
				p.pos++
			}
			p.pos += 2
		default:
			return
		}
	}
}

func (p *parser) word() string {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
			p.pos++
		} else {
			break
		}
	}
	return p.src[start:p.pos]
}

func (p *parser) peekWord() string {
	save, saveLine := p.pos, p.line
	w := p.word()
	p.pos, p.line = save, saveLine
	return w
}

func (p *parser) expectChar(c byte) error {
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != c {
		found := "eof"
		if p.pos < len(p.src) {
			found = string(rune(p.src[p.pos]))
		}
		return p.errf("expected %q, found %q", string(rune(c)), found)
	}
	p.pos++
	return nil
}

func (p *parser) acceptChar(c byte) bool {
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

func (p *parser) parse() error {
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			return nil
		}
		switch w := p.word(); w {
		case "interface":
			if err := p.parseInterface(); err != nil {
				return err
			}
		case "typedef":
			if err := p.parseTypedef(); err != nil {
				return err
			}
		case "module":
			// module Name { ... }; — flatten: just strip the wrapper.
			if name := p.word(); name == "" {
				return p.errf("module requires a name")
			}
			if err := p.expectChar('{'); err != nil {
				return err
			}
		case "":
			if p.acceptChar('}') {
				p.acceptChar(';')
				continue // module close
			}
			return p.errf("unexpected character %q", string(rune(p.src[p.pos])))
		default:
			return p.errf("unexpected %q", w)
		}
	}
}

func (p *parser) parseTypedef() error {
	t, err := p.parseType()
	if err != nil {
		return err
	}
	name := p.word()
	if name == "" {
		return p.errf("typedef requires a name")
	}
	if err := p.expectChar(';'); err != nil {
		return err
	}
	p.repo.mu.Lock()
	p.repo.typedefs[name] = t
	p.repo.mu.Unlock()
	return nil
}

func (p *parser) parseInterface() error {
	name := p.word()
	if name == "" {
		return p.errf("interface requires a name")
	}
	iface := &Interface{Name: name, Ops: map[string]*Operation{}}
	if p.acceptChar(':') {
		for {
			b := p.word()
			if b == "" {
				return p.errf("base interface name expected")
			}
			iface.Bases = append(iface.Bases, b)
			if !p.acceptChar(',') {
				break
			}
		}
	}
	if err := p.expectChar('{'); err != nil {
		return err
	}
	for {
		p.skipSpace()
		if p.acceptChar('}') {
			break
		}
		if err := p.parseMember(iface); err != nil {
			return err
		}
	}
	p.acceptChar(';')
	p.repo.Register(iface)
	return nil
}

func (p *parser) parseMember(iface *Interface) error {
	op := &Operation{}
	w := p.peekWord()
	if w == "oneway" {
		p.word()
		op.Oneway = true
	}
	if p.peekWord() == "readonly" {
		p.word()
		if p.word() != "attribute" {
			return p.errf("expected 'attribute' after 'readonly'")
		}
		t, err := p.parseType()
		if err != nil {
			return err
		}
		name := p.word()
		if name == "" {
			return p.errf("attribute requires a name")
		}
		if err := p.expectChar(';'); err != nil {
			return err
		}
		// Model the attribute as a parameterless getter.
		iface.Ops[name] = &Operation{Name: name, Ret: t}
		return nil
	}
	ret, err := p.parseType()
	if err != nil {
		return err
	}
	op.Ret = ret
	op.Name = p.word()
	if op.Name == "" {
		return p.errf("operation requires a name")
	}
	if err := p.expectChar('('); err != nil {
		return err
	}
	for {
		p.skipSpace()
		if p.acceptChar(')') {
			break
		}
		dir := p.word()
		switch dir {
		case "in":
			// Only "in" parameters are supported: out/inout have no natural
			// analog when results are multi-valued replies.
		case "out", "inout":
			return p.errf("%s parameters are not supported; return values instead", dir)
		default:
			return p.errf("parameter direction expected, found %q", dir)
		}
		t, err := p.parseType()
		if err != nil {
			return err
		}
		name := p.word()
		if name == "" {
			return p.errf("parameter requires a name")
		}
		op.Params = append(op.Params, Param{Name: name, Type: t})
		if p.acceptChar(',') {
			continue
		}
	}
	if err := p.expectChar(';'); err != nil {
		return err
	}
	if op.Oneway && op.Ret != TypeVoid {
		return p.errf("oneway operation %s must return void", op.Name)
	}
	iface.Ops[op.Name] = op
	return nil
}

func (p *parser) parseType() (TypeKind, error) {
	w := p.word()
	switch w {
	case "void":
		return TypeVoid, nil
	case "boolean":
		return TypeBool, nil
	case "double", "float", "long", "short", "unsigned":
		if w == "unsigned" {
			p.word() // consume the base integer type
		}
		return TypeNumber, nil
	case "string":
		return TypeString, nil
	case "any":
		return TypeAny, nil
	case "Object":
		return TypeObject, nil
	case "sequence":
		if err := p.expectChar('<'); err != nil {
			return 0, err
		}
		if _, err := p.parseType(); err != nil {
			return 0, err
		}
		if err := p.expectChar('>'); err != nil {
			return 0, err
		}
		return TypeTable, nil
	case "":
		return 0, p.errf("type expected")
	default:
		// Named type: typedef or unknown (treated as any — the paper's
		// dynamically typed values make this safe).
		p.repo.mu.RLock()
		t, ok := p.repo.typedefs[w]
		p.repo.mu.RUnlock()
		if ok {
			return t, nil
		}
		if strings.HasSuffix(w, "List") || strings.HasSuffix(w, "Seq") {
			return TypeTable, nil
		}
		return TypeAny, nil
	}
}
