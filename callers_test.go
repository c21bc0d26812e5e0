package medrelax

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptWithoutCaller lists the non-test functions that no program, init,
// package-level initializer, exported root API or interface method reaches,
// each with the reason it stays: every one is a reference that tests score
// production code against, or a documented capability.
var keptWithoutCaller = map[string]string{
	"core.Similarity.Sim":          "per-pair Eq. 5 that the oracle tests score the relax kernel against",
	"core.Similarity.SimIC":        "per-pair Eq. 3 that the oracle tests score the relax kernel against",
	"core.simICFromLCS":            "Eq. 3 from one LCS, the body of Similarity.SimIC",
	"core.takeForKInstances":       "the exhaustive oracle's k consumption",
	"core.Relaxer.WalkedNodes":     "the relax kernel's work counter (ROADMAP item 5)",
	"core.LearnPathWeights":        "path-weight learning, a capability README documents",
	"core.clampWeight":             "used by LearnPathWeights",
	"core.sigmoid":                 "used by LearnPathWeights",
	"eks.Graph.DescendantCount":    "the reference for Graph.DescendantCounts",
	"stringutil.LevenshteinWithin": "the reference of the CI fuzz differential that guards EditBand",
	"corpus.Corpus.CountPhrases":   "the reference of the CI fuzz differential that guards CountPhrasesN",
}

// TestEveryFunctionHasACaller type-checks every non-test package of the
// module and walks references from its roots: main and init of every
// program, package-level initializers, the root package's exported API, and
// every method whose name an interface declares. A function the walk does
// not reach is dead unless keptWithoutCaller names it with a reason.
func TestEveryFunctionHasACaller(t *testing.T) {
	unreached := map[string]bool{}
	var dead []string
	for _, name := range unreachedFunctions(t, ".") {
		unreached[name] = true
		if _, ok := keptWithoutCaller[name]; !ok {
			dead = append(dead, name)
		}
	}
	if len(dead) > 0 {
		t.Errorf("%d functions have no caller outside tests; delete them or add each to keptWithoutCaller with a reason:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
	for name := range keptWithoutCaller {
		if !unreached[name] {
			t.Errorf("keptWithoutCaller names %s, which is gone or now has a caller; drop the entry", name)
		}
	}
}

// reachPass holds the type-checked packages of one module.
type reachPass struct {
	fset    *token.FileSet
	module  string
	dirs    map[string]string // import path -> directory
	checked map[string]*reachPkg
	std     types.Importer
}

type reachPkg struct {
	types *types.Package
	files []*ast.File
	info  *types.Info
}

func (p *reachPass) Import(path string) (*types.Package, error) {
	if _, ok := p.dirs[path]; !ok {
		return p.std.Import(path)
	}
	pkg, err := p.check(path)
	if err != nil {
		return nil, err
	}
	return pkg.types, nil
}

func (p *reachPass) check(path string) (*reachPkg, error) {
	if pkg, ok := p.checked[path]; ok {
		if pkg == nil {
			return nil, errors.New("import cycle through " + path)
		}
		return pkg, nil
	}
	p.checked[path] = nil
	bp, err := build.ImportDir(p.dirs[path], 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(p.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: p}
	tp, err := conf.Check(path, p.fset, files, info)
	if err != nil {
		return nil, err
	}
	pkg := &reachPkg{types: tp, files: files, info: info}
	p.checked[path] = pkg
	return pkg, nil
}

// unreachedFunctions returns the sorted names (package.Func or
// package.Recv.Method, the package named by its path inside the module)
// of every non-test function the walk does not reach.
func unreachedFunctions(t *testing.T, root string) []string {
	t.Helper()
	p := &reachPass{
		fset:    token.NewFileSet(),
		module:  "medrelax",
		dirs:    map[string]string{},
		checked: map[string]*reachPkg{},
	}
	std := map[string]bool{}
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if base := d.Name(); dir != root && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		}
		for _, imp := range bp.Imports {
			if imp != p.module && !strings.HasPrefix(imp, p.module+"/") {
				std[imp] = true
			}
		}
		path := p.module
		if rel := filepath.ToSlash(dir); rel != "." {
			path += "/" + rel
		}
		p.dirs[path] = dir
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for path := range p.dirs {
		paths = append(paths, path)
	}
	sort.Strings(paths)

	// One go list finds the export data of every standard package the
	// module imports; the gc importer would otherwise run one per package.
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}"}
	for path := range std {
		args = append(args, path)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "=")
		exports[path] = file
	}
	p.std = importer.ForCompiler(p.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, errors.New("no export data for " + path)
		}
		return os.Open(file)
	})

	// Every method name an interface declares, in the module or in a
	// standard package it imports directly or transitively.
	ifaceMethods := map[string]bool{}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceMethods[it.Method(i).Name()] = true
			}
		}
	}
	seenStd := map[*types.Package]bool{}
	var addStd func(*types.Package)
	addStd = func(pkg *types.Package) {
		if seenStd[pkg] {
			return
		}
		seenStd[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			addStd(imp)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	// errors.Is, As and Unwrap call these through unnamed interfaces.
	for _, name := range []string{"Unwrap", "Is", "As"} {
		ifaceMethods[name] = true
	}

	decls := map[*types.Func]string{} // every non-test function with a body
	edges := map[*types.Func][]*types.Func{}
	var roots []*types.Func
	uses := func(info *types.Info, n ast.Node) []*types.Func {
		var out []*types.Func
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := info.Uses[id].(*types.Func); ok {
					out = append(out, fn.Origin())
				}
			}
			return true
		})
		return out
	}
	var methods []*types.Func
	for _, path := range paths {
		pkg, err := p.check(path)
		if err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
		short := strings.TrimPrefix(strings.TrimPrefix(path, p.module), "/")
		short = strings.TrimPrefix(short, "internal/")
		if short == "" {
			short = p.module
		}
		for _, imp := range pkg.types.Imports() {
			if _, ok := p.dirs[imp.Path()]; !ok {
				addStd(imp)
			}
		}
		for _, tv := range pkg.info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
		for _, f := range pkg.files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.GenDecl:
					if decl.Tok == token.VAR {
						roots = append(roots, uses(pkg.info, decl)...)
					}
				case *ast.FuncDecl:
					fn := pkg.info.Defs[decl.Name].(*types.Func)
					name := short + "." + fn.Name()
					recv := fn.Type().(*types.Signature).Recv()
					var recvName string
					if recv != nil {
						typ := recv.Type()
						if ptr, ok := typ.(*types.Pointer); ok {
							typ = ptr.Elem()
						}
						recvName = typ.(*types.Named).Obj().Name()
						name = short + "." + recvName + "." + fn.Name()
						methods = append(methods, fn)
					}
					decls[fn] = name
					edges[fn] = uses(pkg.info, decl.Body)
					switch {
					case recv == nil && fn.Name() == "init",
						recv == nil && fn.Name() == "main" && pkg.types.Name() == "main",
						path == p.module && fn.Exported() && (recv == nil || token.IsExported(recvName)):
						roots = append(roots, fn)
					}
				}
			}
		}
	}
	for _, fn := range methods {
		if ifaceMethods[fn.Name()] {
			roots = append(roots, fn)
		}
	}

	reached := map[*types.Func]bool{}
	for len(roots) > 0 {
		fn := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if reached[fn] {
			continue
		}
		reached[fn] = true
		roots = append(roots, edges[fn]...)
	}
	var names []string
	for fn, name := range decls {
		if !reached[fn] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}
