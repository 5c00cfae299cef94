package tlsfof

// The unused-export gate: every exported name under internal/ must have a
// use outside tests, or a reasoned line in testdata/exports_allow.txt.
//
// What counts as a use: any non-test file of a module package (root,
// internal/, cmd/, examples/), every file under bench/, and the root
// package's _test.go files — the repository gates that drive shipped code.
// A package's own tests and the tests under internal/ and cmd/ do not
// count: a name only a test calls is test scaffolding in a shipped file.
//
// Every module package is type-checked from source in one types universe,
// so a method that satisfies an interface from another package keeps its
// identity; export data is read only for the standard library.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

func TestNoUnusedExports(t *testing.T) {
	unused, err := unusedExports(".", "bench")
	if err != nil {
		t.Fatal(err)
	}
	allow, err := os.ReadFile("testdata/exports_allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range checkAllowlist(unused, string(allow)) {
		t.Error(p)
	}
}

// TestUnusedExportsRules runs the gate over a fixture module that has one
// case for each rule.
func TestUnusedExportsRules(t *testing.T) {
	unused, err := unusedExports("testdata/unusedexports", "")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for name := range unused {
		got = append(got, name)
	}
	sort.Strings(got)
	want := []string{
		"fixture/internal/a.OnlyOwnTest", // called by a_test.go only
		"fixture/internal/a.Point.Y",     // a field nothing selects
		"fixture/internal/a.Unused",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("unused = %v, want %v", got, want)
	}

	problems := checkAllowlist(unused, `
# comment lines and blank lines are skipped
fixture/internal/a.Unused      # listed, so not reported
fixture/internal/a.Point       # a type entry covers its members
fixture/internal/a.Gone        # stale: no such name
fixture/internal/b             # stale: nothing in b is unused
fixture/internal/a.OnlyOwnTest
`)
	wantProblems := []string{
		"allowlist entry fixture/internal/a.OnlyOwnTest has no # reason",
		"stale allowlist entry fixture/internal/a.Gone: it names nothing unused",
		"stale allowlist entry fixture/internal/b: it names nothing unused",
		// An entry without a reason does not count, so the name stays flagged.
		"fixture/internal/a.OnlyOwnTest (internal/a/a.go:7) has no use outside tests: delete it, or list it in testdata/exports_allow.txt with a reason",
	}
	if strings.Join(problems, "\n") != strings.Join(wantProblems, "\n") {
		t.Fatalf("problems:\n%s\nwant:\n%s", strings.Join(problems, "\n"), strings.Join(wantProblems, "\n"))
	}
}

// checkAllowlist returns one line per unused name the allowlist does not
// cover and per entry that covers nothing. An entry is
// importpath[.Name[.Member]] followed by "# reason"; it covers that name
// and everything under it, so a bare import path covers a package.
func checkAllowlist(unused map[string]string, allow string) []string {
	var problems []string
	var entries []string
	for _, line := range strings.Split(allow, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		entry, reason, _ := strings.Cut(line, "#")
		entry = strings.TrimSpace(entry)
		if strings.TrimSpace(reason) == "" {
			problems = append(problems, fmt.Sprintf("allowlist entry %s has no # reason", entry))
			continue
		}
		entries = append(entries, entry)
	}
	covers := func(entry, name string) bool {
		return name == entry || strings.HasPrefix(name, entry+".")
	}
	for _, e := range entries {
		needed := false
		for name := range unused {
			needed = needed || covers(e, name)
		}
		if !needed {
			problems = append(problems, fmt.Sprintf("stale allowlist entry %s: it names nothing unused", e))
		}
	}
	var flagged []string
	for name, pos := range unused {
		listed := false
		for _, e := range entries {
			listed = listed || covers(e, name)
		}
		if !listed {
			flagged = append(flagged, fmt.Sprintf("%s (%s) has no use outside tests: delete it, or list it in testdata/exports_allow.txt with a reason", name, pos))
		}
	}
	sort.Strings(flagged)
	return append(problems, flagged...)
}

// listedPkg is the part of `go list -json` output the gate reads.
type listedPkg struct {
	ImportPath, Dir, Export string
	Standard                bool
	GoFiles, TestGoFiles    []string
	Imports, TestImports    []string
	Module                  *struct{ GoVersion string }
	Error                   *struct{ Err string }
}

func goList(dir string, args ...string) ([]*listedPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-json"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s in %s: %v\n%s", strings.Join(args, " "), dir, err, stderr.Bytes())
	}
	var pkgs []*listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(listedPkg)
		if err := dec.Decode(p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
}

// unusedExports type-checks the module at modDir (and the nested module
// at modDir/benchDir, when benchDir is not empty) and returns every
// exported name under internal/ that nothing uses, mapped to its position.
func unusedExports(modDir, benchDir string) (map[string]string, error) {
	modDir, err := filepath.Abs(modDir)
	if err != nil {
		return nil, err
	}
	listed, err := goList(modDir, "-deps", "-export", "./...")
	if err != nil {
		return nil, err
	}
	// The root and bench packages are checked with their test files.
	withTests := map[string]bool{modDir: true}
	if benchDir != "" {
		benchDir = filepath.Join(modDir, benchDir)
		withTests[benchDir] = true
		more, err := goList(benchDir, "-deps", "-export", ".")
		if err != nil {
			return nil, err
		}
		listed = append(listed, more...)
	}

	pkgs := map[string]*listedPkg{}
	exports := map[string]string{} // standard library import path → export data
	for _, p := range listed {
		if p.Standard {
			exports[p.ImportPath] = p.Export
		} else if pkgs[p.ImportPath] == nil {
			pkgs[p.ImportPath] = p
		}
	}
	// Test files import standard packages no shipped file does.
	var missing []string
	for _, p := range pkgs {
		if withTests[p.Dir] {
			for _, path := range p.TestImports {
				if pkgs[path] == nil && exports[path] == "" {
					missing = append(missing, path)
				}
			}
		}
	}
	if len(missing) > 0 {
		more, err := goList(modDir, append([]string{"-deps", "-export"}, missing...)...)
		if err != nil {
			return nil, err
		}
		for _, p := range more {
			exports[p.ImportPath] = p.Export
		}
	}

	fset := token.NewFileSet()
	stdImporter := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		if pkgs[path] != nil {
			return nil, fmt.Errorf("module package %s imported before it was checked", path)
		}
		return stdImporter.Import(path)
	})

	order, err := dependencyOrder(pkgs, withTests)
	if err != nil {
		return nil, err
	}

	used := map[types.Object]bool{}
	idx := newTypeIndex()
	var candidates []candidate
	for _, p := range order {
		names := p.GoFiles
		if withTests[p.Dir] {
			names = append(append([]string(nil), names...), p.TestGoFiles...)
		}
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", runtime.GOARCH)}
		if p.Module != nil && p.Module.GoVersion != "" {
			conf.GoVersion = "go" + p.Module.GoVersion
		}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg

		for _, obj := range info.Uses {
			used[origin(obj)] = true
			idx.walk(obj.Type())
		}
		for _, obj := range info.Defs {
			if obj != nil {
				idx.walk(obj.Type())
			}
		}
		for expr, tv := range info.Types {
			idx.walk(tv.Type)
			// An unkeyed struct literal sets every field.
			if lit, ok := expr.(*ast.CompositeLit); ok && len(lit.Elts) > 0 {
				if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); !keyed {
					if st, ok := tv.Type.Underlying().(*types.Struct); ok {
						for i := 0; i < st.NumFields(); i++ {
							used[origin(st.Field(i))] = true
						}
					}
				}
			}
		}
		if strings.Contains(p.ImportPath+"/", "/internal/") {
			candidates = append(candidates, exportedMembers(pkg)...)
		}
	}

	unused := map[string]string{}
	for _, c := range candidates {
		if used[c.obj] || idx.implicitlyUsed(c.obj) {
			continue
		}
		pos := fset.Position(c.obj.Pos())
		rel, err := filepath.Rel(modDir, pos.Filename)
		if err != nil {
			rel = pos.Filename
		}
		unused[c.name] = fmt.Sprintf("%s:%d", filepath.ToSlash(rel), pos.Line)
	}
	return unused, nil
}

// dependencyOrder sorts the module packages so each comes after every
// module package it imports; a package checked with its tests also comes
// after everything its tests import.
func dependencyOrder(pkgs map[string]*listedPkg, withTests map[string]bool) ([]*listedPkg, error) {
	var order []*listedPkg
	state := map[string]int{} // 1 visiting, 2 done
	var visit func(p *listedPkg) error
	visit = func(p *listedPkg) error {
		switch state[p.ImportPath] {
		case 1:
			return fmt.Errorf("import cycle through %s", p.ImportPath)
		case 2:
			return nil
		}
		state[p.ImportPath] = 1
		deps := p.Imports
		if withTests[p.Dir] {
			deps = append(append([]string(nil), deps...), p.TestImports...)
		}
		for _, d := range deps {
			if q := pkgs[d]; q != nil {
				if err := visit(q); err != nil {
					return err
				}
			}
		}
		state[p.ImportPath] = 2
		order = append(order, p)
		return nil
	}
	paths := make([]string, 0, len(pkgs))
	for path := range pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if err := visit(pkgs[path]); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// typeIndex records every interface type with methods and every
// instantiation of a generic type that the checked program mentions.
type typeIndex struct {
	ifaces    map[*types.Interface]bool
	instances map[*types.Named][]types.Type // generic origin → instantiations
	seen      map[types.Type]bool
}

func newTypeIndex() *typeIndex {
	return &typeIndex{
		ifaces:    map[*types.Interface]bool{},
		instances: map[*types.Named][]types.Type{},
		seen:      map[types.Type]bool{},
	}
}

func (x *typeIndex) walk(t types.Type) {
	if t == nil || x.seen[t] {
		return
	}
	x.seen[t] = true
	switch t := t.(type) {
	case *types.Alias:
		x.walk(types.Unalias(t))
	case *types.Named:
		if t.TypeArgs().Len() > 0 {
			x.instances[t.Origin()] = append(x.instances[t.Origin()], t)
			for i := 0; i < t.TypeArgs().Len(); i++ {
				x.walk(t.TypeArgs().At(i))
			}
		}
		x.walk(t.Underlying())
	case *types.Pointer:
		x.walk(t.Elem())
	case *types.Slice:
		x.walk(t.Elem())
	case *types.Array:
		x.walk(t.Elem())
	case *types.Chan:
		x.walk(t.Elem())
	case *types.Map:
		x.walk(t.Key())
		x.walk(t.Elem())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			x.walk(t.At(i).Type())
		}
	case *types.Signature:
		x.walk(t.Params())
		x.walk(t.Results())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			x.walk(t.Field(i).Type())
		}
	case *types.Interface:
		if t.NumMethods() > 0 {
			x.ifaces[t] = true
		}
		for i := 0; i < t.NumMethods(); i++ {
			x.walk(t.Method(i).Type())
		}
	case *types.TypeParam:
		x.walk(t.Constraint())
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps a use of an instantiated generic func, method or field back
// to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// A candidate is an exported name the gate checks, with its qualified
// name: importpath.Name, or importpath.Type.Member for a method or field.
type candidate struct {
	obj  types.Object
	name string
}

// exportedMembers lists a package's exported package-level names, the
// exported methods of its named types, and the exported fields of its
// exported struct types. Fields reflection reads — embedded ones, XMLName
// and every field of a struct with tags — are left out.
func exportedMembers(pkg *types.Package) []candidate {
	var out []candidate
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		qualified := pkg.Path() + "." + name
		if obj.Exported() {
			out = append(out, candidate{obj, qualified})
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named := tn.Type().(*types.Named)
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				out = append(out, candidate{m, qualified + "." + m.Name()})
			}
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok || !obj.Exported() {
			continue
		}
		tagged := false
		for i := 0; i < st.NumFields(); i++ {
			tagged = tagged || st.Tag(i) != ""
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() && !f.Embedded() && f.Name() != "XMLName" && !tagged {
				out = append(out, candidate{f, qualified + "." + f.Name()})
			}
		}
	}
	return out
}

// implicitlyUsed reports a method that fmt or errors calls (String, Error)
// or that satisfies an interface type the program mentions.
func (x *typeIndex) implicitlyUsed(obj types.Object) bool {
	m, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig := m.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	if (m.Name() == "String" || m.Name() == "Error") && sig.Params().Len() == 0 &&
		sig.Results().Len() == 1 && types.Identical(sig.Results().At(0).Type(), types.Typ[types.String]) {
		return true
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	recvs := []types.Type{named}
	if named.TypeParams().Len() > 0 {
		recvs = x.instances[named]
	}
	for iface := range x.ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(iface, false, nil, m.Name()); obj == nil {
			continue
		}
		for _, r := range recvs {
			if types.Implements(r, iface) || types.Implements(types.NewPointer(r), iface) {
				return true
			}
		}
	}
	return false
}
