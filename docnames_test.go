package celldta

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/stats"
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

// TestMutantSnippetsMatchOnce: every row of .github/mutants.json (the
// CI step that requires each mutant to be killed by its tests) names a
// file in which its old snippet occurs exactly once, so a change that
// moves or rewrites the code a mutant edits fails here, not only in CI.
func TestMutantSnippetsMatchOnce(t *testing.T) {
	data, err := os.ReadFile(".github/mutants.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct{ Name, File, Package, Tests, Old, New string }
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no mutant rows")
	}
	for _, r := range rows {
		src, err := os.ReadFile(r.File)
		if err != nil {
			t.Errorf("mutant %q: %v", r.Name, err)
			continue
		}
		if n := strings.Count(string(src), r.Old); n != 1 {
			t.Errorf("mutant %q: its snippet occurs %d times in %s, want 1", r.Name, n, r.File)
		}
		if r.Package == "" || r.Tests == "" || r.Old == r.New {
			t.Errorf("mutant %q: want a package, the tests that kill it and an edit", r.Name)
		}
	}
}

// TestCauseTableBuckets: OBSERVABILITY.md's stall cause table lists
// every cause once, by its slug, under the bucket Cause.Bucket folds it
// into.
func TestCauseTableBuckets(t *testing.T) {
	text, err := os.ReadFile("OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(text), "### Stall cause taxonomy\n")
	if !ok {
		t.Fatal("OBSERVABILITY.md has no stall cause taxonomy section")
	}
	section, _, _ = strings.Cut(section, "\n#")
	buckets := map[string]stats.Bucket{"Working": stats.Working, "Idle": stats.Idle, "MemStall": stats.MemStall,
		"LSStall": stats.LSStall, "LSEStall": stats.LSEStall, "Prefetch": stats.Prefetch}
	rows := map[string]string{}
	for _, m := range regexp.MustCompile("(?m)^\\| `(\\w+)` \\| (\\w+) \\|").FindAllStringSubmatch(section, -1) {
		if _, dup := rows[m[1]]; dup {
			t.Errorf("the cause table lists %s twice", m[1])
		}
		rows[m[1]] = m[2]
	}
	for c := range stats.NumCauses {
		name, ok := rows[c.Slug()]
		if !ok {
			t.Errorf("the cause table has no row for %s", c.Slug())
		} else if b, ok := buckets[name]; !ok || b != c.Bucket() {
			t.Errorf("the cause table puts %s under %s, Cause.Bucket under %v", c.Slug(), name, c.Bucket())
		}
	}
	if len(rows) != int(stats.NumCauses) {
		t.Errorf("the cause table has %d rows, there are %d causes", len(rows), stats.NumCauses)
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
