package autoadapt

// The reachability sweep: every exported identifier under internal/ must be
// reached from a root — the facade, a command, an example or the benchmark
// module — or be listed in testdata/reach_allow.txt with its reason. Code
// that only its own package's tests call is not part of the system.
//
// The same sweep checks fields: every exported field of an exported struct
// type under internal/ that a root reaches must be written by code a root
// reaches (a composite-literal key, an assignment or inc/dec target, or
// &x.F), or be listed with its reason. An option that only tests set is a
// configuration the system never runs.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const modulePath = "autoadapt"

// sixPackages is ROADMAP item 4's size bar: the set whose non-test lines
// the deletion work is measured on.
var sixPackages = map[string]bool{
	"internal/orb": true, "internal/script": true, "internal/trading": true,
	"internal/trading/shard": true, "internal/core": true, "internal/monitor": true,
}

// fmtMethods are called by the fmt and errors packages through interfaces
// their signatures do not name (a parameter of type any).
var fmtMethods = []string{"Error", "String", "GoString", "Format", "Unwrap", "Is", "As"}

func TestReachability(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module from source")
	}
	sw := newSweep(t)
	allow := readAllowlist(t, "testdata/reach_allow.txt")

	var roots, allowRoots []types.Object
	for _, p := range sw.pkgs {
		if p.root {
			roots = append(roots, p.decls...)
		}
	}
	roots = append(roots, sw.facadeHandles()...)
	var declAllow, fieldAllow []*allowEntry
	allowField := map[*types.Var]bool{}
	for _, e := range allow {
		objs := sw.resolve(e.name)
		if len(objs) == 0 {
			t.Errorf("%s:%d: allowlist entry %s names nothing", e.file, e.line, e.name)
		}
		e.objs = objs
		if f, ok := field(objs); ok {
			allowField[f] = true
			fieldAllow = append(fieldAllow, e)
			continue
		}
		declAllow = append(declAllow, e)
		allowRoots = append(allowRoots, objs...)
	}

	fromRoots := sw.reach(roots)
	all := sw.reach(append(roots, allowRoots...))

	var lost, allowed []types.Object
	for _, o := range sw.candidates {
		if !all[o] {
			lost = append(lost, o)
		} else if !fromRoots[o] {
			allowed = append(allowed, o)
		}
	}
	for _, e := range declAllow {
		if len(e.objs) == 0 {
			continue
		}
		stale := true
		for _, o := range e.objs {
			if sw.isCandidate[o] && !fromRoots[o] {
				stale = false
				break
			}
		}
		if stale {
			t.Errorf("%s:%d: stale allowlist entry %s: every identifier it covers is reached from a root", e.file, e.line, e.name)
		}
	}

	for _, o := range lost {
		t.Errorf("unreachable: %s (%s, %d lines)", sw.name(o), sw.pos(o), sw.lines(o))
	}

	written := map[*types.Var]bool{}
	for o := range fromRoots {
		for _, f := range sw.writes[o] {
			written[f] = true
		}
	}
	fields, unset := 0, 0
	for _, o := range sw.candidates {
		tn, ok := o.(*types.TypeName)
		if !ok || tn.IsAlias() || !fromRoots[o] {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := range st.NumFields() {
			f := st.Field(i)
			if !f.Exported() || f.Embedded() {
				continue
			}
			fields++
			if written[f] || allowField[f] {
				continue
			}
			unset++
			t.Errorf("unset field: %s.%s (%s): no root writes it", sw.name(tn), f.Name(), sw.pos(f))
		}
	}
	for _, e := range fieldAllow {
		if f, _ := field(e.objs); written[f] {
			t.Errorf("%s:%d: stale allowlist entry %s: a root writes the field", e.file, e.line, e.name)
		}
	}

	total, six := sw.count(lost)
	t.Logf("reach: %d packages, %d exported identifiers under internal/", len(sw.pkgs), len(sw.candidates))
	t.Logf("reach: %d unreachable, %d lines (%d in the six-package set)", len(lost), total, six)
	t.Logf("reach: %d unset fields of %d exported fields in reached struct types", unset, fields)
	atotal, _ := sw.count(allowed)
	t.Logf("reach: %d allowlisted entries cover %d identifiers no root reaches, %d lines, and %d fields no root writes",
		len(allow), len(allowed), atotal, len(fieldAllow))
}

// sweepPkg is one type-checked package of the module or the benchmark module.
type sweepPkg struct {
	path  string // import path relative to the module, "" for the facade
	root  bool
	types *types.Package
	decls []types.Object // package-level objects and methods, init and _ included
}

type span struct {
	file       string
	start, end int
}

type sweep struct {
	dir   string // the module root, which reports name files relative to
	fset  *token.FileSet
	pkgs  []*sweepPkg
	byPkg map[*types.Package]*sweepPkg

	uses        map[types.Object][]types.Object // what each declaration names
	writes      map[types.Object][]*types.Var   // the struct fields each declaration writes
	spans       map[types.Object]span
	methods     map[*types.TypeName][]*types.Func // concrete methods by receiver base type
	byName      map[string][]*types.Func
	stdIfaces   map[types.Object][]*types.Interface // interfaces a non-module object's type involves
	candidates  []types.Object
	isCandidate map[types.Object]bool
}

type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
}

// goList runs `go list -deps -json ./...` in dir and returns the packages
// that are not in the standard library, dependencies first.
func goList(t *testing.T, dir string) []listedPkg {
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		if !p.Standard {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs
}

// moduleImporter hands out the sweep's own type-checked packages for the
// module and type-checks the standard library from source.
type moduleImporter struct {
	std types.ImporterFrom
	mod map[string]*types.Package
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	return im.ImportFrom(path, "", 0)
}

func (im *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := im.mod[path]; ok {
		return p, nil
	}
	return im.std.ImportFrom(path, dir, mode)
}

func newSweep(t *testing.T) *sweep {
	// The source importer reads build.Default. Without cgo it type-checks
	// the standard library's pure-Go files and never runs the C toolchain.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	im := &moduleImporter{
		std: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		mod: map[string]*types.Package{},
	}
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	sw := &sweep{
		dir: dir, fset: fset, byPkg: map[*types.Package]*sweepPkg{},
		uses: map[types.Object][]types.Object{}, writes: map[types.Object][]*types.Var{}, spans: map[types.Object]span{},
		methods: map[*types.TypeName][]*types.Func{}, byName: map[string][]*types.Func{},
		stdIfaces: map[types.Object][]*types.Interface{}, isCandidate: map[types.Object]bool{},
	}
	listed := goList(t, ".")
	listed = append(listed, goList(t, "benchmark")...)
	for _, lp := range listed {
		if im.mod[lp.ImportPath] != nil {
			continue
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: im}
		tp, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", lp.ImportPath, err)
		}
		im.mod[lp.ImportPath] = tp
		rel := strings.TrimPrefix(strings.TrimPrefix(lp.ImportPath, modulePath), "/")
		p := &sweepPkg{
			path: rel, types: tp,
			root: !strings.HasPrefix(rel, "internal/"),
		}
		sw.pkgs = append(sw.pkgs, p)
		sw.byPkg[tp] = p
		sw.collect(p, files, info)
	}
	return sw
}

// collect records each declaration of p: its span, what it names, the
// fields it writes, and, for an internal package, which exported
// identifiers it declares.
func (sw *sweep) collect(p *sweepPkg, files []*ast.File, info *types.Info) {
	// target records the fields an assigned or addressed expression writes:
	// in a.B[i].C, both B and C.
	target := func(o types.Object, e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
					sw.writes[o] = append(sw.writes[o], origin(sel.Obj()).(*types.Var))
				}
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			default:
				return
			}
		}
	}
	declare := func(o types.Object, node ast.Node, doc *ast.CommentGroup) {
		if o == nil {
			return
		}
		start := node.Pos()
		if doc != nil {
			start = doc.Pos()
		}
		ps, pe := sw.fset.Position(start), sw.fset.Position(node.End())
		sw.spans[o] = span{ps.Filename, ps.Line, pe.Line}
		p.decls = append(p.decls, o)
		if !p.root && o.Exported() {
			sw.candidates = append(sw.candidates, o)
			sw.isCandidate[o] = true
		}
		if f, ok := o.(*types.Func); ok {
			if tn := recvTypeName(f); tn != nil && !isInterfaceMethod(f) {
				sw.methods[tn] = append(sw.methods[tn], f)
				sw.byName[f.Name()] = append(sw.byName[f.Name()], f)
			}
		}
		ast.Inspect(node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if u := info.Uses[n]; u != nil {
					sw.uses[o] = append(sw.uses[o], origin(u))
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					if f, ok := info.Uses[id].(*types.Var); ok && f.IsField() {
						sw.writes[o] = append(sw.writes[o], f.Origin())
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					target(o, lhs)
				}
			case *ast.IncDecStmt:
				target(o, n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					target(o, n.X)
				}
			}
			return true
		})
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				o := info.Defs[d.Name]
				if o == nil { // init
					o = types.NewFunc(d.Name.Pos(), p.types, d.Name.Name, nil)
				}
				declare(o, d, d.Doc)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					node, doc := ast.Node(s), (*ast.CommentGroup)(nil)
					if !d.Lparen.IsValid() {
						node, doc = d, d.Doc
					}
					switch s := s.(type) {
					case *ast.TypeSpec:
						if doc == nil {
							doc = s.Doc
						}
						declare(info.Defs[s.Name], node, doc)
						if it, ok := s.Type.(*ast.InterfaceType); ok {
							for _, m := range it.Methods.List {
								for _, n := range m.Names {
									declare(info.Defs[n], m, m.Doc)
								}
							}
						}
					case *ast.ValueSpec:
						if doc == nil {
							doc = s.Doc
						}
						for _, n := range s.Names {
							declare(info.Defs[n], node, doc)
						}
					}
				}
			}
		}
	}
}

// facadeHandles returns the exported methods of every internal type the
// facade names through an alias or an exported field, and of every internal
// type those methods return: the library API a facade user holds.
func (sw *sweep) facadeHandles() []types.Object {
	var out []types.Object
	seen := map[*types.Named]bool{}
	var add func(t types.Type)
	add = func(t types.Type) {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || sw.byPkg[named.Obj().Pkg()] == nil || seen[named] {
			return
		}
		seen[named] = true
		var methods []*types.Func
		if it, ok := named.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				methods = append(methods, it.Method(i))
			}
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				methods = append(methods, m)
			}
		}
		for _, m := range methods {
			out = append(out, m)
			res := m.Type().(*types.Signature).Results()
			for i := 0; i < res.Len(); i++ {
				add(res.At(i).Type())
			}
		}
	}
	for _, p := range sw.pkgs {
		if p.path != "" {
			continue
		}
		for _, o := range p.decls {
			tn, ok := o.(*types.TypeName)
			if !ok {
				continue
			}
			if tn.IsAlias() {
				add(types.Unalias(tn.Type()))
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if st.Field(i).Exported() {
						add(st.Field(i).Type())
					}
				}
			}
		}
	}
	return out
}

// reach returns everything reached from roots. A declaration reaches what
// it names. A method is reached when its receiver type is reached and
// reached code calls it directly or through an interface its receiver type
// implements. fmt's any-typed methods, and the methods of a generic
// interface (a type parameter's constraint), which Implements cannot check
// against an uninstantiated type, count by name alone.
func (sw *sweep) reach(roots []types.Object) map[types.Object]bool {
	reached := map[types.Object]bool{}
	called := map[*types.Func]bool{}
	byName := map[string]bool{}
	ifaces := map[string][]*types.Interface{} // the interfaces each method name is called through
	var queue []types.Object
	var mark func(o types.Object)
	viaIface := func(m *types.Func) bool {
		if byName[m.Name()] {
			return true
		}
		for _, it := range ifaces[m.Name()] {
			if implements(recvTypeName(m), it) {
				return true
			}
		}
		return false
	}
	mark = func(o types.Object) {
		if reached[o] {
			return
		}
		reached[o] = true
		queue = append(queue, o)
		if tn, ok := o.(*types.TypeName); ok {
			for _, m := range sw.methods[tn] {
				if called[m] || viaIface(m) {
					mark(m)
				}
			}
		}
	}
	callName := func(name string) {
		if byName[name] {
			return
		}
		byName[name] = true
		for _, m := range sw.byName[name] {
			if reached[recvTypeName(m)] {
				mark(m)
			}
		}
	}
	callIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			if slices.Contains(ifaces[name], it) {
				continue
			}
			ifaces[name] = append(ifaces[name], it)
			for _, m := range sw.byName[name] {
				if tn := recvTypeName(m); reached[tn] && implements(tn, it) {
					mark(m)
				}
			}
		}
	}
	use := func(o types.Object) {
		if o.Pkg() == nil || sw.byPkg[o.Pkg()] == nil {
			for _, it := range sw.interfaces(o) {
				callIface(it)
			}
			return
		}
		f, ok := o.(*types.Func)
		switch {
		case ok && isInterfaceMethod(f):
			mark(f)
			recv := f.Type().(*types.Signature).Recv().Type()
			if named, ok := recv.(*types.Named); ok && named.TypeParams().Len() > 0 {
				callName(f.Name())
			} else {
				callIface(recv.Underlying().(*types.Interface))
			}
		case ok && recvTypeName(f) != nil:
			called[f] = true
			if reached[recvTypeName(f)] {
				mark(f)
			}
		default:
			mark(o)
		}
	}
	for _, n := range fmtMethods {
		callName(n)
	}
	for _, p := range sw.pkgs {
		for _, o := range p.decls {
			if o.Name() == "init" || o.Name() == "_" {
				mark(o)
			}
		}
	}
	for _, o := range roots {
		mark(o)
	}
	for len(queue) > 0 {
		o := queue[0]
		queue = queue[1:]
		for _, u := range sw.uses[o] {
			use(u)
		}
	}
	return reached
}

// implements reports whether tn's type, or a pointer to it, implements it.
// A generic type's methods are checked by name, as its type is not
// instantiated.
func implements(tn *types.TypeName, it *types.Interface) bool {
	t := tn.Type()
	if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
		return true
	}
	return types.Implements(t, it) || types.Implements(types.NewPointer(t), it)
}

// interfaces lists the interfaces a standard library object's type
// mentions: the interface itself, a variable's type, or a function's
// parameters. Passing a value there lets the library call their methods.
func (sw *sweep) interfaces(o types.Object) []*types.Interface {
	if its, ok := sw.stdIfaces[o]; ok {
		return its
	}
	var its []*types.Interface
	addType := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			its = append(its, it)
		}
	}
	switch o := o.(type) {
	case *types.TypeName, *types.Var:
		addType(o.Type())
	case *types.Func:
		sig := o.Type().(*types.Signature)
		for i := 0; i < sig.Params().Len(); i++ {
			pt := sig.Params().At(i).Type()
			if sl, ok := pt.(*types.Slice); ok && sig.Variadic() && i == sig.Params().Len()-1 {
				pt = sl.Elem()
			}
			addType(pt)
		}
	}
	sw.stdIfaces[o] = its
	return its
}

// resolve turns an allowlist name into the objects it covers: a package
// ("internal/testutil") covers every declaration in it, a type
// ("internal/clock.Sim") covers itself and its methods, and a function,
// variable, constant, method ("internal/orb.Client.Stats") or struct field
// ("internal/orb.ClientOptions.Now") covers itself.
func (sw *sweep) resolve(name string) []types.Object {
	for _, p := range sw.pkgs {
		if p.path == name {
			return p.decls
		}
		rest, ok := strings.CutPrefix(name, p.path+".")
		if !ok || p.path == "" {
			continue
		}
		ident, method, _ := strings.Cut(rest, ".")
		o := p.types.Scope().Lookup(ident)
		if o == nil {
			return nil
		}
		tn, isType := o.(*types.TypeName)
		if method != "" {
			if !isType {
				return nil
			}
			m, _, _ := types.LookupFieldOrMethod(tn.Type(), true, p.types, method)
			if m != nil && m.Pkg() == p.types {
				return []types.Object{m}
			}
			return nil
		}
		out := []types.Object{o}
		if isType {
			for _, m := range sw.methods[tn] {
				out = append(out, m)
			}
		}
		return out
	}
	return nil
}

func (sw *sweep) name(o types.Object) string {
	p := sw.byPkg[o.Pkg()].path
	if f, ok := o.(*types.Func); ok {
		if tn := recvTypeName(f); tn != nil {
			return p + "." + tn.Name() + "." + f.Name()
		}
	}
	return p + "." + o.Name()
}

// pos is where o is declared, relative to the module root.
func (sw *sweep) pos(o types.Object) token.Position {
	pos := sw.fset.Position(o.Pos())
	if rel, err := filepath.Rel(sw.dir, pos.Filename); err == nil {
		pos.Filename = rel
	}
	return pos
}

func (sw *sweep) lines(o types.Object) int {
	s := sw.spans[o]
	return s.end - s.start + 1
}

// count sums the lines of the declarations objs occupy (a declaration of
// several names counts once), in total and in the six-package set.
func (sw *sweep) count(objs []types.Object) (total, six int) {
	seen := map[span]bool{}
	for _, o := range objs {
		s := sw.spans[o]
		if seen[s] {
			continue
		}
		seen[s] = true
		total += sw.lines(o)
		if sixPackages[sw.byPkg[o.Pkg()].path] {
			six += sw.lines(o)
		}
	}
	return total, six
}

func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

// recvTypeName is the declared type a method belongs to, nil for a function.
func recvTypeName(f *types.Func) *types.TypeName {
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

// field reports whether an allowlist entry's objects are one struct field.
func field(objs []types.Object) (*types.Var, bool) {
	if len(objs) != 1 {
		return nil, false
	}
	f, ok := objs[0].(*types.Var)
	return f, ok && f.IsField()
}

func isInterfaceMethod(f *types.Func) bool {
	recv := f.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

type allowEntry struct {
	file string
	line int
	name string
	objs []types.Object
}

// readAllowlist reads "name reason" lines; # starts a comment. An entry
// without a reason is an error.
func readAllowlist(t *testing.T, file string) []*allowEntry {
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []*allowEntry
	seen := map[string]bool{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: allowlist entry %s has no reason", file, n, name)
		}
		if seen[name] {
			t.Errorf("%s:%d: duplicate allowlist entry %s", file, n, name)
		}
		seen[name] = true
		out = append(out, &allowEntry{file: file, line: n, name: name})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
