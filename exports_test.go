package celldta

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadExportsFile lists the exported names under internal/ that no
// non-test code uses, each with the reason it stays. The list may only
// shrink: TestNoDeadExports fails on a dead name missing from it and on
// an entry that is no longer dead.
const deadExportsFile = "testdata/dead_exports.txt"

// implicitMethods are methods the standard library calls through an
// interface, so no call site names them.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Format": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true, "Write": true, "Read": true, "Close": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// TestNoDeadExports parses every non-test Go file of the repository —
// the benchmark module under bench/ included, as a user — and reports
// the exported names declared under internal/ that nothing uses outside
// their own declaration. Names are package-level identifiers and
// methods ("internal/cell.Machine.NextEvent"); a method counts as used
// wherever a selector names it, whatever the receiver, since the scan
// has no type information.
func TestNoDeadExports(t *testing.T) {
	dead := deadExports(t, ".")
	allowed := readDeadExports(t)
	for _, name := range dead {
		if _, ok := allowed[name]; !ok {
			t.Errorf("%s has no non-test user: delete it (the allowlist %s may only shrink)", name, deadExportsFile)
		}
		delete(allowed, name)
	}
	for name := range allowed {
		t.Errorf("%s is listed in %s but is no longer a dead export: remove the entry", name, deadExportsFile)
	}
}

func readDeadExports(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(deadExportsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allowed := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s: entry %s gives no reason", deadExportsFile, name)
		}
		allowed[name] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allowed
}

// deadExports returns the dead exported names under root/internal,
// sorted.
func deadExports(t *testing.T, root string) []string {
	t.Helper()
	type file struct {
		dir string // slash-separated, relative to root
		f   *ast.File
	}
	var files []file
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if skipDir(root, p, name) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		files = append(files, file{filepath.ToSlash(rel), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Declarations: "dir.Name" for package-level names, "dir.Type.Method"
	// for methods. methods maps a method name to its declarations.
	declared := map[string]bool{}
	methods := map[string][]string{}
	for _, fl := range files {
		if !strings.HasPrefix(fl.dir, "internal/") {
			continue
		}
		for _, node := range declUnits(fl.f) {
			for _, name := range declNames(fl.dir, node) {
				declared[name] = true
				if fn, ok := node.(*ast.FuncDecl); ok && fn.Recv != nil {
					methods[fn.Name.Name] = append(methods[fn.Name.Name], name)
				}
			}
		}
	}

	// Uses: a qualified identifier names a package-level declaration, a
	// bare identifier one of its own package, and any other selector every
	// method of that name. A use inside a declaration does not count for
	// that declaration itself.
	used := map[string]bool{}
	for _, fl := range files {
		imports := map[string]string{} // local name -> slash dir under root
		for _, imp := range fl.f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			dir, ok := strings.CutPrefix(p, "repro/")
			if !ok {
				continue
			}
			local := path.Base(p)
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = dir
		}
		for _, unit := range declUnits(fl.f) {
			self := declNames(fl.dir, unit)
			use := func(name string) {
				for _, s := range self {
					if s == name {
						return
					}
				}
				used[name] = true
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if dir, ok := imports[x.Name]; ok {
							use(dir + "." + n.Sel.Name)
							return false
						}
					}
					for _, m := range methods[n.Sel.Name] {
						use(m)
					}
					ast.Inspect(n.X, visit) // not n.Sel: a field or method, not a package-level name
					return false
				case *ast.Ident:
					use(fl.dir + "." + n.Name)
				}
				return true
			}
			for _, node := range usesOf(unit) {
				ast.Inspect(node, visit)
			}
		}
	}

	var dead []string
	for name := range declared {
		if !used[name] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	return dead
}

// skipDir reports whether a walk of the repository from root skips the
// directory p named name: hidden and underscore directories and testdata.
func skipDir(root, p, name string) bool {
	return p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata")
}

// declUnits splits a file's declarations into the units a use may not
// count for: each function or method and each spec of a grouped
// declaration.
func declUnits(f *ast.File) []ast.Node {
	var units []ast.Node
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			units = append(units, d)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				units = append(units, spec)
			}
		}
	}
	return units
}

// usesOf returns the parts of a declaration unit that may use other
// names: a function's signature and body, not its name or receiver (a
// method does not use its own type).
func usesOf(unit ast.Node) []ast.Node {
	fn, ok := unit.(*ast.FuncDecl)
	if !ok {
		return []ast.Node{unit}
	}
	if fn.Body == nil {
		return []ast.Node{fn.Type}
	}
	return []ast.Node{fn.Type, fn.Body}
}

// declNames lists the exported names a declaration unit declares in
// dir: "dir.Name" for package-level names and "dir.Type.Method" for
// methods of exported types.
func declNames(dir string, unit ast.Node) []string {
	var names []string
	switch u := unit.(type) {
	case *ast.FuncDecl:
		if !u.Name.IsExported() {
			break
		}
		if u.Recv == nil {
			names = append(names, dir+"."+u.Name.Name)
			break
		}
		typ := u.Recv.List[0].Type
		if star, ok := typ.(*ast.StarExpr); ok {
			typ = star.X
		}
		if id, ok := typ.(*ast.Ident); ok && id.IsExported() && !implicitMethods[u.Name.Name] {
			names = append(names, dir+"."+id.Name+"."+u.Name.Name)
		}
	case *ast.TypeSpec:
		if u.Name.IsExported() {
			names = append(names, dir+"."+u.Name.Name)
		}
	case *ast.ValueSpec:
		for _, n := range u.Names {
			if n.IsExported() {
				names = append(names, dir+"."+n.Name)
			}
		}
	}
	return names
}
