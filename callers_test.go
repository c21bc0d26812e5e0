package medrelax

import (
	"errors"
	"fmt"
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
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// keptWithoutCaller lists the non-test functions that no program, init,
// package-level initializer, exported root API or interface method reaches,
// each with the reason it stays: every one is a reference that tests score
// production code against, or a work counter.
var keptWithoutCaller = map[string]string{
	"core.Similarity.Sim":          "per-pair Eq. 5 that the oracle tests score the relax kernel against",
	"core.Similarity.SimIC":        "per-pair Eq. 3 that the oracle tests score the relax kernel against",
	"core.simICFromLCS":            "Eq. 3 from one LCS, the body of Similarity.SimIC",
	"core.takeForKInstances":       "the exhaustive oracle's k consumption",
	"core.Relaxer.WalkedNodes":     "the relax kernel's work counter (ROADMAP item 5)",
	"eks.Graph.DescendantCount":    "the reference for Graph.DescendantCounts",
	"stringutil.Levenshtein":       "the full distance the EDIT oracle (legacyEditMap) scores Edit.Map against",
	"stringutil.LevenshteinWithin": "the reference of the CI fuzz differential that guards EditBand",
}

// TestEveryFunctionHasACaller type-checks every non-test package of the
// module and walks references from its roots: main and init of every
// program, package-level initializers, the root package's exported API, and
// every method whose name an interface declares. A function the walk does
// not reach is dead unless keptWithoutCaller names it with a reason.
func TestEveryFunctionHasACaller(t *testing.T) {
	unreached := map[string]bool{}
	var dead []string
	for _, name := range unreachedFunctions(loadModule(t)) {
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
	paths   []string          // the module's import paths, sorted
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
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
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

// modulePass is the one type-checked load of the module that the function
// and the field guards share.
var (
	moduleOnce sync.Once
	modulePass *reachPass
	moduleErr  error
)

func loadModule(t *testing.T) *reachPass {
	t.Helper()
	moduleOnce.Do(func() { modulePass, moduleErr = checkModule(".", "medrelax") })
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return modulePass
}

// checkModule type-checks every non-test package under root, the
// directory of the module named module.
func checkModule(root, module string) (*reachPass, error) {
	p := &reachPass{
		fset:    token.NewFileSet(),
		module:  module,
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
		if rel, _ := filepath.Rel(root, dir); rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		p.dirs[path] = dir
		p.paths = append(p.paths, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(p.paths)

	// One go list finds the export data of every standard package the
	// module imports; the gc importer would otherwise run one per package.
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}"}
	for path := range std {
		args = append(args, path)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v", err)
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
	for _, path := range p.paths {
		if _, err := p.check(path); err != nil {
			return nil, fmt.Errorf("type-check %s: %v", path, err)
		}
	}
	return p, nil
}

// shortName names a package by its path inside the module, without the
// internal/ prefix: core, serving/metrics, cmd/medrelax.
func (p *reachPass) shortName(path string) string {
	short := strings.TrimPrefix(strings.TrimPrefix(path, p.module), "/")
	short = strings.TrimPrefix(short, "internal/")
	if short == "" {
		short = p.module
	}
	return short
}

// unreachedFunctions returns the sorted names (package.Func or
// package.Recv.Method, the package named by its path inside the module)
// of every non-test function the walk does not reach.
func unreachedFunctions(p *reachPass) []string {
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
	for _, path := range p.paths {
		pkg := p.checked[path]
		short := p.shortName(path)
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

// keptWithoutSetter lists the non-test struct fields that no non-test code
// writes, each with the reason it stays: a paper ablation a benchmark runs,
// or a size a test shrinks to reach a branch or to run in time.
var keptWithoutSetter = map[string]string{
	"core.FrequencyOptions.UseTFIDF":         "the tf-idf ablation BenchmarkAblationTFIDF runs",
	"core.IngestOptions.DisableShortcuts":    "the shortcut-edge ablation BenchmarkAblationShortcutEdges runs",
	"core.MaterializeOptions.MaxPerQuery":    "tests cap entries at 1 or lift the cap (-1) to reach the truncated and complete branches on small worlds",
	"core.CandidateIndexOptions.MaxPostings": "tests cap postings at 2 or 8 to reach the skip branch on small worlds",
	"embedding.Config.Dim":                   "tests train small models in time",
	"embedding.Config.Window":                "tests train small models in time",
	"embedding.Config.MinCount":              "tests train small models and reach Train's empty-vocabulary error",
	"embedding.Config.Iterations":            "tests train small models in time",
	"eval.NLQConfig.Questions":               "tests shrink the NLQ workload to run in time",
	"eval.StudyConfig.Participants":          "tests shrink the Table 3 panel to run in time",
	"eval.StudyConfig.T1Questions":           "tests shrink the Table 3 workload to run in time",
	"eval.StudyConfig.T2Questions":           "tests shrink the Table 3 workload to run in time",
}

// TestEveryFieldHasASetter fails on a field of a struct declared outside
// tests and bench/ that no non-test code writes: such a field's zero value
// or default fill is the only value that ever runs. A write is a key of a
// composite literal or a positional literal; the target of an assignment,
// op-assignment, ++/-- or range, and every field selected on the path to it; an
// operand of &, or the receiver of a pointer-method call; or a field of a
// type passed by pointer to a JSON Unmarshal or Decode. A default fill, an
// assignment inside `if x.F == zero` or `if x.F <= zero` whose right side is
// a constant or the same field of a Default…() value, is not a write.
func TestEveryFieldHasASetter(t *testing.T) {
	unset := map[string]bool{}
	var dead []string
	for _, name := range unsetFields(loadModule(t)) {
		unset[name] = true
		if _, ok := keptWithoutSetter[name]; !ok {
			dead = append(dead, name)
		}
	}
	if len(dead) > 0 {
		t.Errorf("%d fields are never set outside tests; make each a constant, delete it, or add it to keptWithoutSetter with a reason:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
	for name := range keptWithoutSetter {
		if !unset[name] {
			t.Errorf("keptWithoutSetter names %s, which is gone or now has a setter; drop the entry", name)
		}
	}
}

// TestFieldSetterRules runs the field guard on a fixture with one field per
// rule: it must report exactly the fields named Unset….
func TestFieldSetterRules(t *testing.T) {
	p, err := checkModule(filepath.Join("testdata", "setters"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fixture.Config.UnsetCopied", "fixture.Config.UnsetFilled", "fixture.Config.UnsetNever"}
	if got := unsetFields(p); !slices.Equal(got, want) {
		t.Errorf("unset fields = %v, want %v", got, want)
	}
}

// unsetFields returns the sorted names (package.Type.Field, an anonymous
// struct named by what encloses it) of every field of a struct declared in
// a non-test file outside bench/ that no non-test code writes.
func unsetFields(p *reachPass) []string {
	fields := map[*types.Var]string{}
	written := map[*types.Var]bool{}
	for _, path := range p.paths {
		pkg := p.checked[path]
		if short := p.shortName(path); short != "bench" && !strings.HasPrefix(short, "bench/") {
			for _, f := range pkg.files {
				declaredFields(pkg.info, f, short, fields)
			}
		}
		for _, f := range pkg.files {
			fieldWrites(pkg.info, f, written)
		}
	}
	// Two identical anonymous struct types declare two sets of fields under
	// one name; a write to either sets the name.
	set := map[string]bool{}
	for v := range written {
		set[fields[v]] = true
	}
	var names []string
	for _, name := range fields {
		if !set[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return slices.Compact(names)
}

// declaredFields names every struct field declared in f: the enclosing
// function, type and field names joined by dots.
func declaredFields(info *types.Info, f *ast.File, short string, fields map[*types.Var]string) {
	var stack []string
	var pushed []bool
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			if pushed[len(pushed)-1] {
				stack = stack[:len(stack)-1]
			}
			pushed = pushed[:len(pushed)-1]
			return true
		}
		name := ""
		switch n := n.(type) {
		case *ast.FuncDecl:
			name = n.Name.Name
			if n.Recv != nil && len(n.Recv.List) == 1 {
				recv := n.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if idx, ok := recv.(*ast.IndexExpr); ok {
					recv = idx.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					name = id.Name + "." + name
				}
			}
		case *ast.TypeSpec:
			name = n.Name.Name
		case *ast.ValueSpec:
			if len(n.Names) > 0 {
				name = n.Names[0].Name
			}
		case *ast.StructType:
			for _, field := range n.Fields.List {
				idents := field.Names
				if len(idents) == 0 { // embedded: Defs maps the type's name
					typ := field.Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					if sel, ok := typ.(*ast.SelectorExpr); ok {
						typ = sel.Sel
					}
					if id, ok := typ.(*ast.Ident); ok {
						idents = []*ast.Ident{id}
					}
				}
				for _, id := range idents {
					if v, ok := info.Defs[id].(*types.Var); ok && v.IsField() {
						fields[v] = strings.Join(append([]string{short}, append(stack, id.Name)...), ".")
					}
				}
			}
		case *ast.Field:
			if len(n.Names) > 0 {
				name = n.Names[0].Name
			}
		}
		pushed = append(pushed, name != "")
		if name != "" {
			stack = append(stack, name)
		}
		return true
	})
}

// fieldWrites marks every field that f writes.
func fieldWrites(info *types.Info, f *ast.File, written map[*types.Var]bool) {
	mark := func(v *types.Var) { written[v.Origin()] = true }
	// path marks the fields selected on the way to an assigned or
	// addressed expression: a.b[i].c writes b and c.
	var path func(e ast.Expr)
	path = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.ParenExpr:
			path(e.X)
		case *ast.StarExpr:
			path(e.X)
		case *ast.IndexExpr:
			path(e.X)
		case *ast.IndexListExpr:
			path(e.X)
		case *ast.SelectorExpr:
			if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
				for _, v := range selectedFields(sel) {
					mark(v)
				}
				path(e.X)
			}
		}
	}
	fills := defaultFills(info, f)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			typ := info.Types[n].Type
			if ptr, ok := typ.(*types.Pointer); ok {
				typ = ptr.Elem()
			}
			st, ok := typ.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						if v, ok := info.Uses[id].(*types.Var); ok {
							mark(v)
						}
					}
				} else if i < st.NumFields() {
					mark(st.Field(i))
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if !fills[lhs] {
					path(lhs)
				}
			}
		case *ast.IncDecStmt:
			path(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				if n.Key != nil {
					path(n.Key)
				}
				if n.Value != nil {
					path(n.Value)
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				path(n.X)
			}
		case *ast.SelectorExpr:
			sel := info.Selections[n]
			if sel == nil || sel.Kind() == types.FieldVal {
				return true
			}
			recv := sel.Obj().Type().(*types.Signature).Recv()
			if recv == nil {
				return true
			}
			if _, ptr := recv.Type().(*types.Pointer); !ptr {
				return true
			}
			// A pointer method takes the address of its receiver: every
			// embedded field on the way, and the fields selected on the
			// way to a receiver that is not already a pointer.
			for _, v := range selectedFields(sel) {
				mark(v)
			}
			if _, ptr := info.Types[n.X].Type.Underlying().(*types.Pointer); !ptr {
				path(n.X)
			}
		case *ast.CallExpr:
			if isJSONDecode(info, n) {
				for _, arg := range n.Args {
					if ptr, ok := info.Types[arg].Type.(*types.Pointer); ok {
						decodedFields(ptr.Elem(), map[types.Type]bool{}, mark)
					}
				}
			}
		}
		return true
	})
}

// selectedFields returns the fields a selection passes through: for a field
// the embedded fields on the way and the field itself, for a method only
// the embedded fields.
func selectedFields(sel *types.Selection) []*types.Var {
	var out []*types.Var
	typ, index := sel.Recv(), sel.Index()
	if sel.Kind() != types.FieldVal {
		index = index[:len(index)-1]
	}
	for _, i := range index {
		if ptr, ok := typ.Underlying().(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		st, ok := typ.Underlying().(*types.Struct)
		if !ok {
			break
		}
		out = append(out, st.Field(i))
		typ = st.Field(i).Type()
	}
	return out
}

// defaultFills returns the left sides of f's default fills: an assignment
// directly inside `if x.F == zero` or `if x.F <= zero` (one operand of a ||
// chain) that sets the same field to a constant or to the same field of a
// Default…() value.
func defaultFills(info *types.Info, f *ast.File) map[ast.Expr]bool {
	fieldOf := func(e ast.Expr) *types.Var {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				return s.Obj().(*types.Var)
			}
		}
		return nil
	}
	isZero := func(e ast.Expr) bool {
		tv := info.Types[e]
		return tv.IsNil() || tv.Value != nil && (tv.Value.String() == "0" || tv.Value.String() == `""` || tv.Value.String() == "false")
	}
	fills := map[ast.Expr]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		tested := map[*types.Var]bool{}
		var conds func(e ast.Expr)
		conds = func(e ast.Expr) {
			bin, ok := ast.Unparen(e).(*ast.BinaryExpr)
			if !ok {
				return
			}
			switch bin.Op {
			case token.LOR:
				conds(bin.X)
				conds(bin.Y)
			case token.EQL, token.LEQ:
				if v := fieldOf(bin.X); v != nil && isZero(bin.Y) {
					tested[v] = true
				}
			}
		}
		conds(ifs.Cond)
		for _, stmt := range ifs.Body.List {
			as, ok := stmt.(*ast.AssignStmt)
			if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
				continue
			}
			for i, lhs := range as.Lhs {
				v := fieldOf(lhs)
				if v == nil || !tested[v] {
					continue
				}
				rhs := as.Rhs[i]
				if info.Types[rhs].Value != nil || fieldOf(rhs) == v && isDefaultCall(info, ast.Unparen(rhs).(*ast.SelectorExpr).X) {
					fills[lhs] = true
				}
			}
		}
		return true
	})
	return fills
}

// isDefaultCall reports whether e calls a function whose name starts with
// Default.
func isDefaultCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	}
	fn, ok := info.Uses[id].(*types.Func)
	return ok && strings.HasPrefix(fn.Name(), "Default")
}

// isJSONDecode reports whether call is encoding/json's Unmarshal or a
// Decoder's Decode.
func isJSONDecode(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "encoding/json" && (fn.Name() == "Unmarshal" || fn.Name() == "Decode")
}

// decodedFields marks every field a JSON decode into typ can write.
func decodedFields(typ types.Type, seen map[types.Type]bool, mark func(*types.Var)) {
	if seen[typ] {
		return
	}
	seen[typ] = true
	switch u := typ.Underlying().(type) {
	case *types.Pointer:
		decodedFields(u.Elem(), seen, mark)
	case *types.Slice:
		decodedFields(u.Elem(), seen, mark)
	case *types.Array:
		decodedFields(u.Elem(), seen, mark)
	case *types.Map:
		decodedFields(u.Elem(), seen, mark)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			mark(u.Field(i))
			decodedFields(u.Field(i).Type(), seen, mark)
		}
	}
}
