package clientmap

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// apiAllowlist names the declarations under internal/ that nothing in the
// root module reaches but that must stay, keyed as pkg.Name or
// pkg.Type.Method, each with the reason it stays.
var apiAllowlist = map[string]string{
	"experiments.StreamConfig":    "frozen cmd/bench — ROADMAP item 2f",
	"serve.FormatReverseName":     "frozen cmd/bench — ROADMAP item 2f",
	"serve.Daemon.DNSHandler":     "frozen cmd/bench — ROADMAP item 2f",
	"serve.Daemon.HTTPHandler":    "frozen cmd/bench — ROADMAP item 2f",
	"serve.Index.SortedASNs":      "frozen cmd/bench — ROADMAP item 2f",
	"serve.Index.SampleTraffic":   "frozen cmd/bench — ROADMAP item 2f",
	"serve.Cache.Get":             "frozen cmd/bench — ROADMAP item 2f",
	"serve.Cache.Put":             "frozen cmd/bench — ROADMAP item 2f",
	"clockx.Sim.Advance":          "frozen cmd/bench — ROADMAP item 2f",
	"gpdns.Server.Stats":          "frozen cmd/bench — ROADMAP item 2f",
	"stream.Ledger.MarshalLedger": "the experiments streaming determinism suite compares two runs' ledgers byte for byte",
	"domains.ByName":              "catalog lookup the authdns, gpdns, traffic and domains tests share",
}

// TestExportedNamesHaveCallers is the dead-code gate: every top-level
// func, method, type, var and const under internal/, exported or not,
// must be reachable from a command, an example or the root package's
// exported API, or carry an allowlist entry with a reason.
func TestExportedNamesHaveCallers(t *testing.T) {
	fset, files := loadModule(t)
	if len(apiAllowlist) > 25 {
		t.Errorf("allowlist has %d entries; the cap is 25", len(apiAllowlist))
	}
	unused, stale, err := unreachable(fset, files, apiAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range unused {
		t.Errorf("%s is reached by no command, example or public API: move it into a _test.go file, delete it, or allowlist it with a reason", d)
	}
	for _, k := range stale {
		t.Errorf("allowlist entry %s names no unreached declaration: remove it", k)
	}
}

// loadModule parses every non-test Go file of the module outside
// cmd/bench (a module of its own), the source both gates read.
func loadModule(t *testing.T) (*token.FileSet, []apiFile) {
	t.Helper()
	fset := token.NewFileSet()
	var files []apiFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == "cmd/bench" || d.Name() == "testdata" || (p != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		files = append(files, apiFile{dir: filepath.ToSlash(filepath.Dir(p)), f: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

// TestImportBoundaries holds three import boundaries. The snapshot
// container links only what the campaign codecs it still declares need;
// every other codec lives with its format. The serving daemon links
// none of the packages that generate the world, its traffic and root
// traces, or measure and compare it: answering queries needs only the
// map. And the campaign command and the examples import no internal
// package: they run on the public clientmap API alone, which is what
// makes the API enough to reproduce the evaluation.
func TestImportBoundaries(t *testing.T) {
	snapshotMay := []string{"core/cacheprobe", "health", "metrics", "netx", "randx"}
	daemonMustNot := []string{"anycast", "apnic", "asdb", "cdn", "churn", "core/dnslogs", "roots", "traffic"}

	_, files := loadModule(t)
	imports := map[string][]string{} // module dir → internal packages it imports, as dirs
	for _, af := range files {
		for _, is := range af.f.Imports {
			if p, ok := strings.CutPrefix(strings.Trim(is.Path.Value, `"`), modulePath+"/"); ok {
				imports[af.dir] = append(imports[af.dir], p)
			}
		}
	}
	for dir, ps := range imports {
		if dir != "cmd/experiments" && !strings.HasPrefix(dir, "examples/") {
			continue
		}
		for _, p := range ps {
			if strings.HasPrefix(p, "internal/") {
				t.Errorf("%s imports %s; it may use only the public clientmap API", dir, p)
			}
		}
	}
	for _, p := range imports["internal/snapshot"] {
		if !slices.Contains(snapshotMay, strings.TrimPrefix(p, "internal/")) {
			t.Errorf("internal/snapshot imports %s; the container may import only %v", p, snapshotMay)
		}
	}
	closure := map[string]bool{}
	var walk func(dir string)
	walk = func(dir string) {
		for _, p := range imports[dir] {
			if !closure[p] {
				closure[p] = true
				walk(p)
			}
		}
	}
	walk("cmd/clientmapd")
	for _, p := range daemonMustNot {
		if closure["internal/"+p] {
			t.Errorf("cmd/clientmapd links internal/%s", p)
		}
	}
}

// TestPublicAPIHidesInternalTypes: no exported function or method of
// package clientmap takes or returns a type from an internal package,
// and no exported type is, embeds or has an exported field of one, so a
// caller outside the module can use everything the package exports.
func TestPublicAPIHidesInternalTypes(t *testing.T) {
	_, files := loadModule(t)
	for _, af := range files {
		if af.dir != "." {
			continue
		}
		internal := map[string]bool{} // file-local names of internal imports
		for _, is := range af.f.Imports {
			if p := strings.Trim(is.Path.Value, `"`); strings.HasPrefix(p, modulePath+"/internal/") {
				name := path.Base(p)
				if is.Name != nil {
					name = is.Name.Name
				}
				internal[name] = true
			}
		}
		check := func(decl string, n ast.Node) {
			ast.Inspect(n, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && internal[id.Name] {
						t.Errorf("exported %s exposes %s.%s", decl, id.Name, sel.Sel.Name)
					}
				}
				return true
			})
		}
		for _, d := range af.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); !ok || !id.IsExported() {
						continue
					}
				}
				if d.Name.IsExported() {
					check(d.Name.Name, d.Type)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						check(ts.Name.Name, ts.Type)
						continue
					}
					for _, f := range st.Fields.List {
						if len(f.Names) == 0 || f.Names[0].IsExported() {
							check(ts.Name.Name, f.Type)
						}
					}
				}
			}
		}
	}
}

// wallClockAllowed names the places under internal/ that may read or wait
// on the real clock, as a package dir or one file, each with its reason.
// Everything else runs on the simulated clock (clockx.Sim), so that a run
// is a pure function of its seed and never waits on real time.
var wallClockAllowed = map[string]string{
	"internal/clockx":              "clockx.Real is the one real-clock implementation of clockx.Clock",
	"internal/dnsnet":              "real sockets take real deadlines and timers",
	"internal/pipeline":            "stage and checkpoint timings for the log and trace, and the shard-gate poll ticker",
	"internal/experiments/gate.go": "a shard runner steals a silent owner's stage after a real-time deadline",
	"internal/serve":               "the daemon's artifact reload ticker",
	"internal/statefs/faulty.go":   "the slow disk-fault shape delays real I/O",
	"internal/statefsck":           "a temp file younger than MinTmpAge may belong to a live writer",
}

// TestNoWallClock fails on any call of time.Now, Since, Sleep, After,
// Tick, NewTimer or NewTicker in a non-test file under internal/ outside
// wallClockAllowed, and on an allowlist entry that no call needs.
func TestNoWallClock(t *testing.T) {
	banned := map[string]bool{"Now": true, "Since": true, "Sleep": true, "After": true, "Tick": true, "NewTimer": true, "NewTicker": true}
	fset, files := loadModule(t)
	used := map[string]bool{}
	for _, af := range files {
		if !strings.HasPrefix(af.dir, "internal/") {
			continue
		}
		timeName := ""
		for _, is := range af.f.Imports {
			if is.Path.Value == `"time"` {
				timeName = "time"
				if is.Name != nil {
					timeName = is.Name.Name
				}
			}
		}
		if timeName == "" {
			continue
		}
		file := filepath.ToSlash(fset.Position(af.f.Pos()).Filename)
		ast.Inspect(af.f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !banned[sel.Sel.Name] {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); !ok || x.Name != timeName || x.Obj != nil {
				return true
			}
			for _, key := range []string{file, af.dir} {
				if _, ok := wallClockAllowed[key]; ok {
					used[key] = true
					return true
				}
			}
			t.Errorf("%s: time.%s reads the real clock; use the simulated clock or allowlist it with a reason", fset.Position(sel.Pos()), sel.Sel.Name)
			return true
		})
	}
	for key := range wallClockAllowed {
		if !used[key] {
			t.Errorf("wallClockAllowed entry %s allows no call: remove it", key)
		}
	}
}

// apiFile is one parsed source file; dir is module-relative, "." for the
// root package.
type apiFile struct {
	dir  string
	test bool
	f    *ast.File
}

const modulePath = "clientmap"

// unreachable type-checks the module's non-test files and walks
// references by object identity from the roots: every declaration of a
// main package, the root package's exported API, init functions and
// blank declarations, the allowlist, and every method of a reached type
// that satisfies an interface declared in the module or in a package it
// imports. It returns "file:line key" for each top-level declaration
// under internal/ the walk misses, and the allowlist keys that name no
// declaration or one the walk reaches without them.
func unreachable(fset *token.FileSet, files []apiFile, allow map[string]string) (unused, stale []string, err error) {
	imp := &moduleImporter{
		fset: fset,
		dirs: map[string][]*ast.File{},
		pkgs: map[string]*types.Package{},
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	var std []string
	for _, af := range files {
		if af.test {
			continue
		}
		imp.dirs[af.dir] = append(imp.dirs[af.dir], af.f)
		for _, is := range af.f.Imports {
			if p := strings.Trim(is.Path.Value, `"`); !strings.HasPrefix(p, modulePath+"/") {
				std = append(std, p)
			}
		}
	}
	if imp.std, err = stdImporter(fset, std); err != nil {
		return nil, nil, err
	}
	dirs := make([]string, 0, len(imp.dirs))
	for dir := range imp.dirs {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if _, err := imp.Import(importPath(dir)); err != nil {
			return nil, nil, err
		}
	}

	type decl struct {
		dir, key string
		pos      token.Pos
		nodes    []ast.Node
	}
	decls := map[types.Object]*decl{}
	byKey := map[string]types.Object{}
	var roots []types.Object
	var rootNodes []ast.Node
	for _, dir := range dirs {
		pkg := path.Base(dir)
		main := imp.pkgs[importPath(dir)].Name() == "main"
		add := func(id *ast.Ident, key string, nodes ...ast.Node) {
			if id.Name == "_" || (id.Name == "init" && key == pkg+".init") {
				rootNodes = append(rootNodes, nodes...)
				return
			}
			obj := imp.info.Defs[id]
			decls[obj] = &decl{dir, key, id.Pos(), nodes}
			if strings.HasPrefix(dir, "internal/") {
				byKey[key] = obj
			}
			if main || (dir == "." && id.IsExported()) {
				roots = append(roots, obj)
			}
		}
		for _, f := range imp.dirs[dir] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					key := pkg + "." + d.Name.Name
					if d.Recv != nil {
						key = pkg + "." + recvName(imp.info.Defs[d.Name]) + "." + d.Name.Name
					}
					add(d.Name, key, d)
				case *ast.GenDecl:
					var last ast.Node // a const spec without values repeats the last one that has them
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, pkg+"."+s.Name.Name, s)
						case *ast.ValueSpec:
							if len(s.Values) > 0 || d.Tok == token.VAR {
								last = s
							}
							for _, n := range s.Names {
								add(n, pkg+"."+n.Name, s, last)
							}
						}
					}
				}
			}
		}
	}

	ifaces := imp.interfaces()
	reached := map[types.Object]bool{}
	var queue []types.Object
	reach := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if decls[obj] != nil && !reached[obj] {
			reached[obj] = true
			queue = append(queue, obj)
		}
	}
	visit := func(n ast.Node) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := imp.info.Uses[id]; obj != nil {
					reach(obj)
				}
			}
			return true
		})
	}
	drain := func() {
		for len(queue) > 0 {
			obj := queue[0]
			queue = queue[1:]
			for _, n := range decls[obj].nodes {
				visit(n)
			}
			switch obj.(type) {
			case *types.Const, *types.Var:
				if named, ok := obj.Type().(*types.Named); ok {
					reach(named.Obj())
				}
			case *types.TypeName:
				for _, m := range satisfying(obj.Type(), ifaces) {
					reach(m)
				}
			}
		}
	}
	for _, obj := range roots {
		reach(obj)
	}
	for _, n := range rootNodes {
		visit(n)
	}
	drain()
	for key := range allow {
		obj := byKey[key]
		if obj == nil || reached[obj] {
			stale = append(stale, key)
			continue
		}
		reach(obj)
	}
	drain()

	for obj, d := range decls {
		if reached[obj] || !strings.HasPrefix(d.dir, "internal/") {
			continue
		}
		pos := fset.Position(d.pos)
		unused = append(unused, fmt.Sprintf("%s:%d %s", pos.Filename, pos.Line, d.key))
	}
	sort.Strings(unused)
	sort.Strings(stale)
	return unused, stale, nil
}

func importPath(dir string) string {
	if dir == "." {
		return modulePath
	}
	return modulePath + "/" + dir
}

// recvName is the type name of a method's receiver.
func recvName(obj types.Object) string {
	t := obj.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj().Name()
}

// stdImporter reads the standard library's export data through the gc
// importer, locating every file with one go list run instead of the one
// run per package importer.Default makes.
func stdImporter(fset *token.FileSet, paths []string) (types.Importer, error) {
	exports := map[string]string{}
	if len(paths) > 0 {
		out, err := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}, paths...)...).Output()
		if err != nil {
			return nil, fmt.Errorf("go list -export: %w", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			if p, file, ok := strings.Cut(line, " "); ok {
				exports[p] = file
			}
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	}), nil
}

// moduleImporter type-checks the module's packages from their parsed
// files on first import and the standard library from export data, so
// the gate needs nothing outside the standard library.
type moduleImporter struct {
	fset *token.FileSet
	dirs map[string][]*ast.File // module-relative dir → non-test files
	pkgs map[string]*types.Package
	std  types.Importer
	info *types.Info
}

func (m *moduleImporter) Import(p string) (*types.Package, error) {
	if pkg := m.pkgs[p]; pkg != nil {
		return pkg, nil
	}
	dir, ok := strings.CutPrefix(p, modulePath+"/")
	if p == modulePath {
		dir, ok = ".", true
	}
	if !ok {
		return m.std.Import(p)
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(p, m.fset, m.dirs[dir], m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[p] = pkg
	return pkg, nil
}

// interfaces returns error and every named interface with methods that a
// module package or any package it imports, directly or not, declares.
func (m *moduleImporter) interfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(pkg *types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
		for _, dep := range pkg.Imports() {
			walk(dep)
		}
	}
	for _, pkg := range m.pkgs {
		walk(pkg)
	}
	return out
}

// satisfying returns the methods through which t or *t implements any of
// ifaces. A generic type is checked instantiated with its own type
// parameters.
func satisfying(t types.Type, ifaces []*types.Interface) []types.Object {
	named, ok := t.(*types.Named)
	if !ok || types.IsInterface(t) {
		return nil
	}
	if tps := named.TypeParams(); tps.Len() > 0 {
		args := make([]types.Type, tps.Len())
		for i := range args {
			args[i] = tps.At(i)
		}
		inst, err := types.Instantiate(nil, named, args, false)
		if err != nil {
			return nil
		}
		t = inst
	}
	ptr := types.NewPointer(t)
	mset := types.NewMethodSet(ptr)
	if mset.Len() == 0 {
		return nil
	}
	var out []types.Object
	for _, it := range ifaces {
		if !types.Implements(ptr, it) {
			continue
		}
		for i := range it.NumMethods() {
			out = append(out, mset.Lookup(it.Method(i).Pkg(), it.Method(i).Name()).Obj())
		}
	}
	return out
}

// TestUnusedExported feeds the gate's analyzer small in-memory modules.
func TestUnusedExported(t *testing.T) {
	const dead = "package a\nfunc Dead() {}\n"
	const method = "package a\ntype T struct{}\nfunc (T) Int63() int64 { return 0 }\nvar _ = T{}\n"
	cases := []struct {
		name  string
		files map[string]string
		allow map[string]string
		want  []string
	}{
		{"unused exported func is flagged", map[string]string{"internal/a/a.go": dead}, nil,
			[]string{"internal/a/a.go:2 a.Dead"}},
		{"bare in-package use counts", map[string]string{
			"internal/a/a.go": "package a\nfunc Local() {}\nfunc init() { Local() }\n"}, nil, nil},
		{"cross-package selector use counts", map[string]string{
			"internal/a/a.go": "package a\nfunc Remote() {}\n",
			"cmd/c/main.go":   "package main\nimport \"clientmap/internal/a\"\nfunc main() { a.Remote() }\n"}, nil, nil},
		{"use from a test file does not count", map[string]string{
			"internal/a/a.go":      "package a\nfunc OnlyTests() {}\n",
			"internal/a/a_test.go": "package a\nfunc x() { OnlyTests() }\n"}, nil,
			[]string{"internal/a/a.go:2 a.OnlyTests"}},
		{"method called through a selector counts", map[string]string{
			"internal/a/a.go": "package a\ntype T struct{}\nfunc (T) Called() {}\nfunc init() { var t T; t.Called() }\n"}, nil, nil},
		{"package-qualified call keeps no method alive", map[string]string{
			"internal/a/a.go": "package a\nimport \"math\"\ntype T struct{}\nfunc (T) Exp() {}\nvar _, _ = T{}, math.Exp(1)\n"}, nil,
			[]string{"internal/a/a.go:4 a.T.Exp"}},
		{"local variable shadowing an import is not a package", map[string]string{
			"internal/a/a.go": "package a\nimport \"math\"\ntype T struct{}\nfunc (T) Exp() {}\nfunc f(math T) { math.Exp() }\nvar _, _ = math.Pi, f\n"}, nil, nil},
		{"interface method is flagged", map[string]string{"internal/a/a.go": method}, nil,
			[]string{"internal/a/a.go:3 a.T.Int63"}},
		{"allowlisted interface method passes", map[string]string{"internal/a/a.go": method},
			map[string]string{"a.T.Int63": "satisfies rand.Source"}, nil},
		{"stale allowlist entry is reported", map[string]string{"internal/a/a.go": "package a\n"},
			map[string]string{"a.Gone": "deleted"}, []string{"stale a.Gone"}},
		{"allowlist entry for a reached declaration is stale", map[string]string{
			"internal/a/a.go": "package a\nfunc Live() {}\nfunc init() { Live() }\n"},
			map[string]string{"a.Live": "reached anyway"}, []string{"stale a.Live"}},
		{"dead method sharing a live method's name is flagged", map[string]string{
			"internal/a/a.go": "package a\ntype A struct{}\nfunc (A) M() {}\ntype B struct{}\nfunc (B) M() {}\nfunc init() { A{}.M() }\nvar _ = B{}\n"}, nil,
			[]string{"internal/a/a.go:5 a.B.M"}},
		{"helper called only from dead code is flagged", map[string]string{
			"internal/a/a.go": "package a\nfunc Dead() { helper() }\nfunc helper() {}\n"}, nil,
			[]string{"internal/a/a.go:2 a.Dead", "internal/a/a.go:3 a.helper"}},
		{"method satisfying an imported interface passes", map[string]string{
			"internal/a/a.go": "package a\nimport \"fmt\"\ntype T struct{}\nfunc (T) String() string { return \"\" }\nvar _ = fmt.Sprint(T{})\n"}, nil, nil},
		{"declarations reached from the public API pass", map[string]string{
			"internal/a/a.go": "package a\ntype T int\nconst (\n\tX T = iota\n\tY\n)\n",
			"clientmap.go":    "package clientmap\nimport \"clientmap/internal/a\"\nvar Public = a.Y\nvar private = a.X\n"}, nil,
			[]string{"internal/a/a.go:4 a.X"}},
	}
	for _, c := range cases {
		fset := token.NewFileSet()
		var files []apiFile
		for name, src := range c.files {
			f, err := parser.ParseFile(fset, name, src, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, apiFile{dir: path.Dir(name), test: strings.HasSuffix(name, "_test.go"), f: f})
		}
		got, stale, err := unreachable(fset, files, c.allow)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, k := range stale {
			got = append(got, "stale "+k)
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
	}
}
