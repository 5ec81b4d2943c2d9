//go:build !race

package fonduer

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// callerAllowlist names the functions and methods under internal/ that
// may have no caller in non-test Go, each with its reason. Keys are
// "<package path>.<func>" or "<package path>.<type>.<method>".
var callerAllowlist = map[string]string{
	"repro/internal/neural.Tape.Mul":         "primitive op: TestFusedOpsMatchPrimitives' reference for the fused ops",
	"repro/internal/neural.Tape.Dot":         "primitive op: TestFusedOpsMatchPrimitives' reference for the fused ops",
	"repro/internal/neural.Tape.Sigmoid":     "primitive op: TestFusedOpsMatchPrimitives' reference for the fused ops",
	"repro/internal/neural.Tape.WeightedSum": "primitive op: TestFusedOpsMatchPrimitives' reference for the fused ops",
}

// TestEveryInternalFuncHasACaller type-checks the module from source and
// fails on any function or method under internal/ that no non-test file
// references: a function only tests call belongs in a test file. A
// method counts as referenced when it is called directly, when it
// implements a method of an interface the program uses, or when its
// type is aliased by this package (the library API). Self-references
// do not count. The check takes about 4 s on 2 vCPU and six times that
// under the race detector, which has nothing to find in it: the file
// is tagged !race.
func TestEveryInternalFuncHasACaller(t *testing.T) {
	m := checkedModule(t)

	// Everything the non-test code references, minus self-references.
	used := map[*types.Func]bool{}
	for id, obj := range m.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if d := m.decls[fn]; d != nil && d.Pos() <= id.Pos() && id.Pos() < d.End() {
			continue
		}
		used[fn] = true
	}
	// The interfaces the program can dispatch through, by method name:
	// the module's own, the ones its expressions have, and those of
	// every standard package it imports.
	ifaces := map[string][]*types.Interface{}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
			}
		}
	}
	for _, tv := range m.info.Types {
		if tv.Type != nil {
			addIface(tv.Type)
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range m.pkgs {
		walk(p)
	}
	addIface(types.Universe.Lookup("error").Type())
	// The library API: every exported method of a type this package
	// aliases.
	api := map[*types.TypeName]bool{}
	root := m.pkgs[module]
	for _, name := range root.Scope().Names() {
		if tn, ok := root.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				api[named.Obj()] = true
			}
		}
	}

	var missing []string
	for fn, decl := range m.decls {
		if !strings.HasPrefix(fn.Pkg().Path(), module+"/internal/") || used[fn] || fn.Name() == "init" {
			continue
		}
		key, recv := funcKey(fn)
		if fn.Type().(*types.Signature).Recv() != nil {
			if recv == nil {
				continue // an interface's own method
			}
			if api[recv.Obj()] && fn.Exported() {
				continue
			}
			if implementsAny(recv, ifaces[fn.Name()]) {
				continue
			}
		}
		if _, ok := callerAllowlist[key]; ok {
			continue
		}
		missing = append(missing, key+" ("+m.fset.Position(decl.Pos()).String()+")")
	}
	sort.Strings(missing)
	for _, k := range missing {
		t.Errorf("%s has no caller in non-test Go: delete it, move it into a test file, or allowlist it with a reason", k)
	}
	for key := range callerAllowlist {
		switch fn := m.lookup(key); {
		case fn == nil:
			t.Errorf("allowlisted %s is not declared any more: drop its entry", key)
		case used[fn]:
			t.Errorf("allowlisted %s has a caller now: drop its entry", key)
		}
	}
}

// funcKey names fn as "<package path>.<func>" or, for a method of a
// named type, "<package path>.<type>.<method>" with that type.
func funcKey(fn *types.Func) (string, *types.Named) {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Pkg().Path() + "." + fn.Name(), nil
	}
	typ := recv.Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	named, ok := types.Unalias(typ).(*types.Named)
	if !ok {
		return fn.Pkg().Path() + "." + fn.Name(), nil
	}
	return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name(), named
}

// implementsAny reports whether named (or its pointer) implements one
// of ifaces.
func implementsAny(named *types.Named, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

// moduleChecker type-checks the module's packages, non-test files only
// and under the host's build constraints, into one shared types.Info;
// standard-library imports go to the source importer.
type moduleChecker struct {
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]string // import path -> directory
	pkgs  map[string]*types.Package
	files map[string][]*ast.File // import path -> parsed files
	info  *types.Info
	decls map[*types.Func]*ast.FuncDecl
}

const module = "repro"

var (
	checkOnce sync.Once
	checked   *moduleChecker
	checkErr  error
)

// checkedModule returns the module's one type-check, which the
// tripwires share.
func checkedModule(t *testing.T) *moduleChecker {
	t.Helper()
	checkOnce.Do(func() { checked, checkErr = checkModule() })
	if checkErr != nil {
		t.Fatal(checkErr)
	}
	return checked
}

// newInfo returns the type-check record the tripwires read.
func newInfo() *types.Info {
	return &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

func checkModule() (*moduleChecker, error) {
	// The pure-Go variants of the standard library type-check without a
	// C toolchain, and none of the module uses cgo.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	m := &moduleChecker{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		dirs:  map[string]string{},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		decls: map[*types.Func]*ast.FuncDecl{},
		info:  newInfo(),
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if matches, _ := filepath.Glob(filepath.Join(path, "*.go")); len(matches) > 0 {
			m.dirs[filepath.ToSlash(filepath.Join(module, path))] = path
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for path := range m.dirs {
		if _, err := m.Import(path); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (m *moduleChecker) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := m.dirs[path]
	if !ok {
		return m.std.Import(path)
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	p, err := (&types.Config{Importer: m}).Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				m.decls[m.info.Defs[fd.Name].(*types.Func)] = fd
			}
		}
	}
	m.pkgs[path] = p
	m.files[path] = files
	return p, nil
}

// lookup returns the function or method of the checked packages that
// key names, or nil.
func (m *moduleChecker) lookup(key string) *types.Func {
	for fn := range m.decls {
		if k, _ := funcKey(fn); k == key {
			return fn
		}
	}
	return nil
}

// interfaceAllowlist names the interface types under internal/ and cmd/
// that fewer than two named types of non-test Go may implement, each with
// its reason. Keys are "<package path>.<type>".
var interfaceAllowlist = map[string]string{}

// TestEveryInternalInterfaceHasTwoImplementations fails on any interface
// type declared under internal/ or cmd/ that fewer than two named types of
// the module's non-test Go implement, by value or through their pointer:
// an interface with one implementation is an indirection with nothing to
// choose between, so the program should name that type instead. Test
// doubles do not count.
func TestEveryInternalInterfaceHasTwoImplementations(t *testing.T) {
	m := checkedModule(t)
	var declared, all []*types.Package
	for path, p := range m.pkgs {
		all = append(all, p)
		if strings.HasPrefix(path, module+"/internal/") || strings.HasPrefix(path, module+"/cmd/") {
			declared = append(declared, p)
		}
	}
	impls := implementations(declared, all)
	var lonely []string
	for key, n := range impls {
		if _, ok := interfaceAllowlist[key]; n < 2 && !ok {
			lonely = append(lonely, key)
		}
	}
	sort.Strings(lonely)
	for _, k := range lonely {
		t.Errorf("interface %s has %d implementations in non-test Go: name the type instead, or allowlist it with a reason", k, impls[k])
	}
	for key := range interfaceAllowlist {
		switch n, ok := impls[key]; {
		case !ok:
			t.Errorf("allowlisted interface %s is not declared any more: drop its entry", key)
		case n >= 2:
			t.Errorf("allowlisted interface %s has %d implementations now: drop its entry", key, n)
		}
	}
}

// TestInterfaceCheckRules pins implementations' count on small packages.
func TestInterfaceCheckRules(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		want      map[string]int
	}{
		{"one implementation", `type I interface{ M() }
			type A struct{}
			func (A) M() {}`, map[string]int{"p.I": 1}},
		{"two implementations", `type I interface{ M() }
			type A struct{}
			func (A) M() {}
			type B int
			func (B) M() {}`, map[string]int{"p.I": 2}},
		{"pointer receiver", `type I interface{ M() }
			type A struct{}
			func (*A) M() {}
			type B struct{}
			func (*B) M() {}`, map[string]int{"p.I": 2}},
		{"interfaces are not implementations", `type I interface{ M() }
			type J interface{ I; N() }
			type A struct{}
			func (A) M() {}
			func (A) N() {}`, map[string]int{"p.I": 1, "p.J": 1}},
		{"constraints are not interfaces", `type Number interface{ ~int | ~float64 }`, map[string]int{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, "p.go", "package p\n"+tc.src, 0)
			if err != nil {
				t.Fatal(err)
			}
			p, err := new(types.Config).Check("p", fset, []*ast.File{f}, nil)
			if err != nil {
				t.Fatal(err)
			}
			pkgs := []*types.Package{p}
			if got := implementations(pkgs, pkgs); !maps.Equal(got, tc.want) {
				t.Errorf("implementations = %v, want %v", got, tc.want)
			}
		})
	}
}

// implementations counts, for each interface type declared at package
// level in declared (a subset of all), the named non-interface types
// declared at package level in all that implement it, by value or through
// their pointer, keyed "<package path>.<type>". Constraint interfaces and generic types are
// left out: neither has a method set to compare without instantiating.
func implementations(declared, all []*types.Package) map[string]int {
	var ifaces, impls []*types.Named
	for _, p := range all {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || n.TypeParams().Len() > 0 {
				continue
			}
			switch it, ok := n.Underlying().(*types.Interface); {
			case !ok:
				impls = append(impls, n)
			case it.IsMethodSet() && slices.Contains(declared, p):
				ifaces = append(ifaces, n)
			}
		}
	}
	out := map[string]int{}
	for _, n := range ifaces {
		it := n.Underlying().(*types.Interface)
		key := n.Obj().Pkg().Path() + "." + n.Obj().Name()
		out[key] = 0
		for _, c := range impls {
			if implementsAny(c, []*types.Interface{it}) {
				out[key]++
			}
		}
	}
	return out
}

// fieldAllowlist names the struct fields under internal/ and cmd/ that
// no non-test Go may read, each with its reason. Keys are
// "<package path>.<type>.<field>".
var fieldAllowlist = map[string]string{
	"repro/internal/core.RetrainConfig.WarmFrom": "ignored; deleted with ROADMAP 3(d)",
	"repro/internal/serve.RegistryConfig.Async":  "ignored; deleted with ROADMAP 3(d)",
	"repro/internal/model.TrainOptions.Workers":  "ignored; deleted with ROADMAP 3(d)",
	"repro/internal/neural.adamConsts.c1":        "read by kernels_amd64.s",
	"repro/internal/neural.adamConsts.c2":        "read by kernels_amd64.s",
}

// TestEveryInternalFieldIsRead fails on any struct field under
// internal/ or cmd/ that no non-test Go reads (benchmark/ included), by
// the rules of fieldReads: a field only written is state nothing looks
// at, and a field only tests read belongs in the test. Fields with a
// json tag are exempt, and so are the exported fields of the library
// API: the types this package aliases and every type reachable from
// them through exported fields.
func TestEveryInternalFieldIsRead(t *testing.T) {
	m := checkedModule(t)
	var all []*ast.File
	keys := map[*types.Var]string{}
	for path, files := range m.files {
		all = append(all, files...)
		if strings.HasPrefix(path, module+"/internal/") || strings.HasPrefix(path, module+"/cmd/") {
			maps.Copy(keys, structFields(path, files, m.info))
		}
	}
	read := fieldReads(all, m.info)
	api := apiFields(m.pkgs[module])

	var missing []string
	byKey := map[string]*types.Var{}
	for v, key := range keys {
		byKey[key] = v
		if read[v] || api[v] {
			continue
		}
		if _, ok := fieldAllowlist[key]; ok {
			continue
		}
		missing = append(missing, key+" ("+m.fset.Position(v.Pos()).String()+")")
	}
	sort.Strings(missing)
	for _, k := range missing {
		t.Errorf("field %s is never read in non-test Go: delete it, move it into a test file, or allowlist it with a reason", k)
	}
	for key := range fieldAllowlist {
		switch v := byKey[key]; {
		case v == nil:
			t.Errorf("allowlisted field %s is not declared, or has a json tag, now: drop its entry", key)
		case read[v]:
			t.Errorf("allowlisted field %s is read now: drop its entry", key)
		case api[v]:
			t.Errorf("allowlisted field %s is library API, which is exempt: drop its entry", key)
		}
	}
}

// TestFieldCheckRules pins fieldReads' rules on small packages, one
// outcome each.
func TestFieldCheckRules(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		unread    []string
	}{
		{"read", `type T struct{ a int }
			func F(t T) int { return t.a }`, nil},
		{"write only", `type T struct{ a, b int }
			func F() T { t := T{a: 1}; t.a = 2; t.b = 3; return T{4, 5} }`, []string{"p.T.a", "p.T.b"}},
		{"op-assign and inc-dec", `type T struct{ n, m int }
			func F(t *T) { t.n += 2; t.m++; t.m-- }`, []string{"p.T.m", "p.T.n"}},
		{"map key", `type K struct{ a, b int }
			var m = map[K]int{}
			func F() int { return m[K{a: 1, b: 2}] }`, nil},
		{"compared", `type E struct{ a int; in struct{ b int } }
			func F(x, y E) bool { return x != y }`, nil},
		{"promoted field", `type Inner struct{ v int }
			type Outer struct{ Inner }
			func F(o Outer) int { return o.v }`, nil},
		{"promoted method", `type Inner struct{}
			func (Inner) M() int { return 1 }
			type Outer struct{ Inner }
			func F(o Outer) int { return o.M() }`, nil},
		{"embedded but not promoted", `type Inner struct{}
			type Outer struct{ Inner; x int }
			func F(o Outer) int { return o.x }`, []string{"p.Outer.Inner"}},
		{"json tag", "type J struct{ A int `json:\"a\"`; B int `db:\"b\"` }", []string{"p.J.B"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, "p.go", "package p\n"+tc.src, 0)
			if err != nil {
				t.Fatal(err)
			}
			info, files := newInfo(), []*ast.File{f}
			if _, err := new(types.Config).Check("p", fset, files, info); err != nil {
				t.Fatal(err)
			}
			read := fieldReads(files, info)
			var unread []string
			for v, key := range structFields("p", files, info) {
				if !read[v] {
					unread = append(unread, key)
				}
			}
			sort.Strings(unread)
			if fmt.Sprint(unread) != fmt.Sprint(tc.unread) {
				t.Errorf("unread fields %v, want %v", unread, tc.unread)
			}
		})
	}
}

// structFields keys the struct fields declared in files, the package
// path's, as "<package path>.<type>.<field>", except those with a json
// tag: their reader is encoding/json. A nested struct's field is named
// through the outer one ("<package path>.<type>.<field>.<field>"), and
// a struct outside any type declaration is keyed under "<anonymous>".
func structFields(path string, files []*ast.File, info *types.Info) map[*types.Var]string {
	out := map[*types.Var]string{}
	for _, f := range files {
		prefix := map[*ast.StructType]string{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok {
					prefix[st] = path + "." + n.Name.Name
				}
			case *ast.StructType:
				p, ok := prefix[n]
				if !ok {
					p = path + ".<anonymous>"
				}
				st := info.Types[n].Type.(*types.Struct)
				i := 0
				for _, field := range n.Fields.List {
					k := max(len(field.Names), 1) // an embedded field is one
					for ; k > 0; k-- {
						v := st.Field(i)
						i++
						if field.Tag != nil {
							tag, _ := strconv.Unquote(field.Tag.Value)
							if _, ok := reflect.StructTag(tag).Lookup("json"); ok {
								continue
							}
						}
						if inner, ok := field.Type.(*ast.StructType); ok {
							prefix[inner] = p + "." + v.Name()
						}
						out[v] = p + "." + v.Name()
					}
				}
			}
			return true
		})
	}
	return out
}

// fieldReads returns the struct fields that files read. A write is not
// a read: a composite-literal key or positional element, the selector
// on the left of an assignment (op= included), and the operand of ++
// and --. Every other use is, and so is each embedded field on a
// promoted selection's path, and every field of a struct type that is
// a map key or an operand of == or != (recursively through its struct
// and array fields), since the comparison reads them all.
func fieldReads(files []*ast.File, info *types.Info) map[*types.Var]bool {
	writes := map[*ast.Ident]bool{}
	writeSel := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			writes[sel.Sel] = true
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							writes[id] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					writeSel(e)
				}
			case *ast.IncDecStmt:
				writeSel(n.X)
			}
			return true
		})
	}

	read := map[*types.Var]bool{}
	for id, obj := range info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() && !writes[id] {
			read[v.Origin()] = true
		}
	}
	for _, sel := range info.Selections {
		typ, path := sel.Recv(), sel.Index()
		for _, i := range path[:len(path)-1] {
			if p, ok := typ.Underlying().(*types.Pointer); ok {
				typ = p.Elem()
			}
			v := typ.Underlying().(*types.Struct).Field(i)
			read[v.Origin()] = true
			typ = v.Type()
		}
	}
	var compared func(types.Type)
	compared = func(typ types.Type) {
		switch u := typ.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				read[u.Field(i).Origin()] = true
				compared(u.Field(i).Type())
			}
		case *types.Array:
			compared(u.Elem())
		}
	}
	for e, tv := range info.Types {
		if tv.Type == nil {
			continue
		}
		if mt, ok := tv.Type.Underlying().(*types.Map); ok {
			compared(mt.Key())
		}
		if b, ok := e.(*ast.BinaryExpr); ok && (b.Op == token.EQL || b.Op == token.NEQ) {
			if x := info.Types[b.X].Type; x != nil {
				compared(x)
			}
		}
	}
	return read
}

// apiFields returns the exported fields of the library API: those of
// the types root aliases and, transitively, of the module's types
// reachable from them through exported fields.
func apiFields(root *types.Package) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	seen := map[*types.TypeName]bool{}
	var reach func(types.Type)
	reach = func(typ types.Type) {
		switch t := types.Unalias(typ).(type) {
		case *types.Pointer:
			reach(t.Elem())
		case *types.Slice:
			reach(t.Elem())
		case *types.Array:
			reach(t.Elem())
		case *types.Map:
			reach(t.Key())
			reach(t.Elem())
		case *types.Named:
			obj := t.Origin().Obj()
			if seen[obj] || obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), module+"/") {
				return
			}
			seen[obj] = true
			if st, ok := t.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						out[f.Origin()] = true
						reach(f.Type())
					}
				}
			}
		}
	}
	for _, name := range root.Scope().Names() {
		if tn, ok := root.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			reach(tn.Type())
		}
	}
	return out
}

// optionAllowlist names the fields of option structs under internal/ that
// no non-test Go may set, each with its reason. Keys are
// "<package path>.<type>.<field>".
var optionAllowlist = map[string]string{
	"repro/internal/model.TrainOptions.Clip": "TestGoldenTrajectory hashes trained weights at other clip values",
}

// TestEveryInternalOptionIsSet fails on any field of a struct type under
// internal/ whose name ends in Options or Config that no non-test Go sets
// (benchmark/ and examples/ included), by the rules of fieldSets: a
// setting every caller leaves at its zero value has one value in use, and
// that value is a constant, not a choice. Fields with a json tag are
// exempt: encoding/json sets them from a request body.
func TestEveryInternalOptionIsSet(t *testing.T) {
	m := checkedModule(t)
	var all []*ast.File
	keys := map[*types.Var]string{}
	for path, files := range m.files {
		all = append(all, files...)
		if strings.HasPrefix(path, module+"/internal/") {
			maps.Copy(keys, optionFields(m.pkgs[path]))
		}
	}
	set := fieldSets(all, m.info)

	var unset []string
	byKey := map[string]*types.Var{}
	for v, key := range keys {
		byKey[key] = v
		if _, ok := optionAllowlist[key]; set[v] || ok {
			continue
		}
		unset = append(unset, key+" ("+m.fset.Position(v.Pos()).String()+")")
	}
	sort.Strings(unset)
	for _, k := range unset {
		t.Errorf("option %s is never set in non-test Go: make its one value a constant, or allowlist it with a reason", k)
	}
	for key := range optionAllowlist {
		switch v := byKey[key]; {
		case v == nil:
			t.Errorf("allowlisted option %s is not declared, or has a json tag, now: drop its entry", key)
		case set[v]:
			t.Errorf("allowlisted option %s is set now: drop its entry", key)
		}
	}
}

// TestOptionCheckRules pins optionFields' and fieldSets' rules on small
// packages, one outcome each.
func TestOptionCheckRules(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		unset     []string
	}{
		{"literal key", `type Options struct{ a, b int }
			var _ = Options{a: 1}`, []string{"p.Options.b"}},
		{"positional literal", `type Config struct{ a, b int }
			var _ = []Config{{1, 2}}`, nil},
		{"elided pointer literal", `type Config struct{ a, b int }
			var _ = []*Config{{a: 1}}`, []string{"p.Config.b"}},
		{"assignment and inc-dec", `type Options struct{ a, b, c int }
			func F(o *Options) { o.a = 1; o.b += 2; o.c++ }`, nil},
		{"read is not a set", `type Options struct{ a int }
			func F(o Options) int { return o.a }`, []string{"p.Options.a"}},
		{"own method does not count", `type Options struct{ a int }
			func (o *Options) defaults() { o.a = 1 }
			func (o Options) with() Options { return Options{a: 2} }`, []string{"p.Options.a"}},
		{"other type's method counts", `type Options struct{ a int }
			type T struct{ o Options }
			func (t *T) F() { t.o.a = 1 }`, nil},
		{"only Options and Config", `type Settings struct{ a int }
			type ConfigSet struct{ b int }`, nil},
		{"json tag", "type Config struct{ A int `json:\"a\"`; B int }", []string{"p.Config.B"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, "p.go", "package p\n"+tc.src, 0)
			if err != nil {
				t.Fatal(err)
			}
			info, files := newInfo(), []*ast.File{f}
			p, err := new(types.Config).Check("p", fset, files, info)
			if err != nil {
				t.Fatal(err)
			}
			set := fieldSets(files, info)
			var unset []string
			for v, key := range optionFields(p) {
				if !set[v] {
					unset = append(unset, key)
				}
			}
			sort.Strings(unset)
			if fmt.Sprint(unset) != fmt.Sprint(tc.unset) {
				t.Errorf("unset options %v, want %v", unset, tc.unset)
			}
		})
	}
}

// optionFields keys the fields of p's struct types whose names end in
// Options or Config as "<package path>.<type>.<field>", except those
// with a json tag.
func optionFields(p *types.Package) map[*types.Var]string {
	out := map[*types.Var]string{}
	for _, name := range p.Scope().Names() {
		tn, ok := p.Scope().Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || !(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")) {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); !ok {
				out[st.Field(i)] = p.Path() + "." + name + "." + st.Field(i).Name()
			}
		}
	}
	return out
}

// fieldSets returns the struct fields that files set: a composite
// literal's key or positional element (&T{...} and an elided element
// of []*T included), the selector on the left of an
// assignment (op= included), and the operand of ++ and --. A set inside
// a method of the field's own struct type (a defaults method) does not
// count: it is the type choosing its own value, not a caller.
func fieldSets(files []*ast.File, info *types.Info) map[*types.Var]bool {
	set := map[*types.Var]bool{}
	for _, f := range files {
		for _, decl := range f.Decls {
			var own *types.Struct // the receiver's struct type, if any
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
				if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
					if _, named := funcKey(fn); named != nil {
						own, _ = named.Underlying().(*types.Struct)
					}
				}
			}
			mark := func(v *types.Var) {
				if own != nil {
					for i := 0; i < own.NumFields(); i++ {
						if own.Field(i) == v {
							return
						}
					}
				}
				set[v.Origin()] = true
			}
			markSel := func(e ast.Expr) {
				if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
					if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
						mark(v)
					}
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					typ := info.Types[n].Type
					if typ == nil {
						return true
					}
					if p, ok := typ.Underlying().(*types.Pointer); ok {
						typ = p.Elem() // an element of []*T{{...}}
					}
					st, ok := typ.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
								mark(v)
							}
						} else {
							mark(st.Field(i))
						}
					}
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						markSel(e)
					}
				case *ast.IncDecStmt:
					markSel(n.X)
				}
				return true
			})
		}
	}
	return set
}
