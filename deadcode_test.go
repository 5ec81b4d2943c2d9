//go:build !race

package fonduer

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// callerAllowlist names the functions and methods under internal/ that
// may have no caller in non-test Go, each with its reason. Keys are
// "<package path>.<func>" or "<package path>.<type>.<method>".
var callerAllowlist = map[string]string{
	"repro/internal/neural.Tape.Sub":           "primitive op with a backward case, pinned by TestOpsForward",
	"repro/internal/neural.Tape.Mul":           "primitive op: TestFusedOpsMatchPrimitives' reference for the fused ops",
	"repro/internal/neural.Tape.Dot":           "primitive op with a backward case, pinned by TestOpsForward",
	"repro/internal/neural.Tape.Sigmoid":       "primitive op: TestFusedOpsMatchPrimitives' reference for the fused ops",
	"repro/internal/neural.Tape.Sum":           "primitive op with a backward case, pinned by TestGradientsEmbedding",
	"repro/internal/neural.Tape.WeightedSum":   "primitive op: TestFusedOpsMatchPrimitives' reference for the fused ops",
	"repro/internal/sparse.ToCOO":              "labeling's reference_test builds its matrices with it",
	"repro/internal/candidates.MeasureBalance": "synth's corpus checks measure class balance with it",
	"repro/internal/candidates.Balance.Ratio":  "synth's corpus checks measure class balance with it",
	"repro/internal/labeling.Apply":            "the sequential development-mode reference ParallelApply is tested against",
	"repro/internal/datamodel.NewSpan":         "the model, features and parser tests build spans with it",
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
	// The pure-Go variants of the standard library type-check without a
	// C toolchain, and none of the module uses cgo.
	build.Default.CgoEnabled = false
	const module = "repro"
	fset := token.NewFileSet()
	m := &moduleChecker{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		dirs:  map[string]string{},
		pkgs:  map[string]*types.Package{},
		decls: map[*types.Func]*ast.FuncDecl{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
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
		t.Fatal(err)
	}
	for path := range m.dirs {
		if _, err := m.Import(path); err != nil {
			t.Fatal(err)
		}
	}

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
			if implementsUsed(recv, ifaces[fn.Name()]) {
				continue
			}
		}
		if _, ok := callerAllowlist[key]; ok {
			continue
		}
		missing = append(missing, key+" ("+fset.Position(decl.Pos()).String()+")")
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

// implementsUsed reports whether named (or its pointer) implements one
// of ifaces.
func implementsUsed(named *types.Named, ifaces []*types.Interface) bool {
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
	info  *types.Info
	decls map[*types.Func]*ast.FuncDecl
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
