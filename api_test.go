package clientmap

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiAllowlist names the exported declarations under internal/ that no
// non-test code in the root module references but that must stay, keyed
// as pkg.Name or pkg.Type.Method, each with the reason it stays.
var apiAllowlist = map[string]string{
	"experiments.StreamConfig":    "frozen cmd/bench — ROADMAP item 2f",
	"serve.FormatReverseName":     "frozen cmd/bench — ROADMAP item 2f",
	"serve.Daemon.DNSHandler":     "frozen cmd/bench — ROADMAP item 2f",
	"serve.Daemon.HTTPHandler":    "frozen cmd/bench — ROADMAP item 2f",
	"serve.Index.SortedASNs":      "frozen cmd/bench — ROADMAP item 2f",
	"serve.Index.SampleTraffic":   "frozen cmd/bench — ROADMAP item 2f",
	"serve.HTTPHandler.ServeHTTP": "satisfies http.Handler: the daemon's http.Server calls it",
	"randx.lazySource.Int63":      "satisfies rand.Source: rand.Rand calls it",
	"randx.lazySource.Uint64":     "satisfies rand.Source64: rand.Rand.Uint64 calls it",
	"stream.Ledger.MarshalLedger": "the experiments streaming determinism suite compares two runs' ledgers byte for byte",
	"domains.ByName":              "catalog lookup the authdns, gpdns, traffic and domains tests share",
}

// TestExportedNamesHaveCallers is the dead-API gate: every exported
// top-level func, type, var, const and method under internal/ must be
// referenced by some non-test code of the root module other than its own
// declaration, or carry an allowlist entry with a reason.
func TestExportedNamesHaveCallers(t *testing.T) {
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
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		files = append(files, apiFile{dir: filepath.ToSlash(filepath.Dir(p)), test: strings.HasSuffix(p, "_test.go"), f: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(apiAllowlist) > 25 {
		t.Errorf("allowlist has %d entries; the cap is 25", len(apiAllowlist))
	}
	unused, stale := unusedExported(fset, files, apiAllowlist)
	for _, d := range unused {
		t.Errorf("%s has no non-test caller: move it into a _test.go file, delete it, or allowlist it with a reason", d)
	}
	for _, k := range stale {
		t.Errorf("allowlist entry %s names no uncalled declaration: remove it", k)
	}
}

// apiFile is one parsed source file; dir is module-relative, "." for the
// root package.
type apiFile struct {
	dir  string
	test bool
	f    *ast.File
}

// unusedExported returns "file:line key" for every exported declaration
// under internal/ that no non-test file references, minus the allowlist,
// and the allowlist keys that matched no such declaration.
// A top-level name is keyed by (directory, name): a bare identifier counts
// in its own package, X.Name where X is the file's import of that
// directory. A method counts as used when any selector that is not
// package-qualified, or any composite-literal key, carries its name
// anywhere, which may miss a dead method but never flags a live one.
func unusedExported(fset *token.FileSet, files []apiFile, allow map[string]string) (unused, stale []string) {
	pkgName := map[string]string{} // dir → package name
	for _, af := range files {
		if !af.test {
			pkgName[af.dir] = af.f.Name.Name
		}
	}
	used := map[[2]string]bool{} // (dir, name)
	usedMember := map[string]bool{}
	type decl struct {
		id        *ast.Ident
		dir, recv string
	}
	var decls []decl
	for _, af := range files {
		if af.test {
			continue
		}
		declaring := map[*ast.Ident]bool{}
		for _, d := range af.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				declaring[d.Name] = true
				recv := ""
				if d.Recv != nil {
					recv = receiverType(d.Recv.List[0].Type, declaring)
				}
				decls = append(decls, decl{d.Name, af.dir, recv})
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						declaring[s.Name] = true
						decls = append(decls, decl{s.Name, af.dir, ""})
					case *ast.ValueSpec:
						for _, n := range s.Names {
							declaring[n] = true
							decls = append(decls, decl{n, af.dir, ""})
						}
					}
				}
			}
		}
		imports := map[string]string{} // local name → module dir, "" outside the module
		for _, is := range af.f.Imports {
			p := strings.Trim(is.Path.Value, `"`)
			dir, ok := strings.CutPrefix(p, modulePath+"/")
			name := path.Base(p)
			if ok {
				name = pkgName[dir]
			}
			if is.Name != nil {
				name = is.Name.Name
			}
			imports[name] = dir
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				// X.Sel is package-qualified when X is an import no local
				// declaration shadows; otherwise Sel is a field or method.
				if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil {
					if dir, ok := imports[x.Name]; ok {
						used[[2]string{dir, n.Sel.Name}] = true
						return false
					}
				}
				usedMember[n.Sel.Name] = true
				ast.Inspect(n.X, visit)
				return false
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); ok {
					usedMember[k.Name] = true
				}
			case *ast.Ident:
				if !declaring[n] {
					used[[2]string{af.dir, n.Name}] = true
				}
			}
			return true
		}
		ast.Inspect(af.f, visit)
	}
	allowed := map[string]bool{}
	for _, d := range decls {
		if !d.id.IsExported() || !strings.HasPrefix(d.dir, "internal/") {
			continue
		}
		name := d.id.Name
		key := path.Base(d.dir) + "." + name
		if d.recv != "" {
			key = path.Base(d.dir) + "." + d.recv + "." + name
		}
		if (d.recv == "" && used[[2]string{d.dir, name}]) || (d.recv != "" && usedMember[name]) {
			continue
		}
		if _, ok := allow[key]; ok {
			allowed[key] = true
			continue
		}
		pos := fset.Position(d.id.Pos())
		unused = append(unused, fmt.Sprintf("%s:%d %s", pos.Filename, pos.Line, key))
	}
	for k := range allow {
		if !allowed[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(unused)
	sort.Strings(stale)
	return unused, stale
}

const modulePath = "clientmap"

// receiverType returns the type name of a method receiver and marks its
// identifier as declaring, so a type used only by its own methods' receivers
// stays unused.
func receiverType(e ast.Expr, declaring map[*ast.Ident]bool) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			declaring[x] = true
			return x.Name
		default:
			return ""
		}
	}
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
			"internal/a/a.go": "package a\nfunc Local() {}\nfunc use() { Local() }\n"}, nil, nil},
		{"cross-package selector use counts", map[string]string{
			"internal/a/a.go": "package a\nfunc Remote() {}\n",
			"cmd/c/main.go":   "package main\nimport \"clientmap/internal/a\"\nfunc main() { a.Remote() }\n"}, nil, nil},
		{"use from a test file does not count", map[string]string{
			"internal/a/a.go":      "package a\nfunc OnlyTests() {}\n",
			"internal/a/a_test.go": "package a\nfunc x() { OnlyTests() }\n"}, nil,
			[]string{"internal/a/a.go:2 a.OnlyTests"}},
		{"method called through a selector counts", map[string]string{
			"internal/a/a.go": "package a\ntype T struct{}\nfunc (T) Called() {}\nfunc use(t T) { t.Called() }\n"}, nil, nil},
		{"package-qualified call keeps no method alive", map[string]string{
			"internal/a/a.go": "package a\nimport \"math\"\ntype T struct{}\nfunc (T) Exp() {}\nvar _, _ = T{}, math.Exp(1)\n"}, nil,
			[]string{"internal/a/a.go:4 a.T.Exp"}},
		{"local variable shadowing an import is not a package", map[string]string{
			"internal/a/a.go": "package a\nimport \"math\"\ntype T struct{}\nfunc (T) Exp() {}\nfunc f(math T) { math.Exp() }\n"}, nil, nil},
		{"interface method is flagged", map[string]string{"internal/a/a.go": method}, nil,
			[]string{"internal/a/a.go:3 a.T.Int63"}},
		{"allowlisted interface method passes", map[string]string{"internal/a/a.go": method},
			map[string]string{"a.T.Int63": "satisfies rand.Source"}, nil},
		{"stale allowlist entry is reported", map[string]string{"internal/a/a.go": "package a\n"},
			map[string]string{"a.Gone": "deleted"}, []string{"stale a.Gone"}},
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
		got, stale := unusedExported(fset, files, c.allow)
		for _, k := range stale {
			got = append(got, "stale "+k)
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
	}
}
