package celldta

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citingDocs are the documents that name tests and benchmarks as the
// evidence for what they state.
var citingDocs = []string{"EXPERIMENTS.md", "OBSERVABILITY.md", "SERVICE.md", "FUZZING.md"}

var (
	// citedName matches a test or benchmark name in prose; a trailing
	// `*` or `(` makes it a prefix (`TestLSWindow*`,
	// `BenchmarkRun(Mmul|Zoom)Original`).
	citedName = regexp.MustCompile(`\b((?:Test|Benchmark)[A-Z0-9_]\w*)([*(]?)`)
	// definedName matches the declaration of a test or benchmark.
	definedName = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark)\w*)\(`)
)

// TestDocsCiteLiveTests: every test or benchmark the documents name is
// defined by some _test.go file of the repository (the benchmark module
// under bench/ included), so a document cannot keep pointing at a test
// that was deleted or renamed.
func TestDocsCiteLiveTests(t *testing.T) {
	defined := definedTests(t, ".")
	for _, doc := range citingDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range citedName.FindAllStringSubmatch(line, -1) {
				if !cited(defined, m[1], m[2] != "") {
					t.Errorf("%s:%d names %s%s, which no _test.go defines", doc, i+1, m[1], m[2])
				}
			}
		}
	}
}

// cited reports whether name, or any name it prefixes when prefix is
// set, is defined.
func cited(defined map[string]bool, name string, prefix bool) bool {
	if !prefix {
		return defined[name]
	}
	for d := range defined {
		if strings.HasPrefix(d, name) {
			return true
		}
	}
	return false
}

// definedTests returns the test and benchmark functions declared under
// root, walking the directories TestNoDeadExports walks.
func definedTests(t *testing.T, root string) map[string]bool {
	t.Helper()
	defined := map[string]bool{}
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
		if !strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		for _, m := range definedName.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return defined
}
