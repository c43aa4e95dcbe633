package repro_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// docs are the documents a reader starts from; every name and path they
// put in backticks must still be there.
var docs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

var (
	backticked = regexp.MustCompile("`[^`\n]+`")
	// testName is a test, benchmark, fuzz target or example; a trailing *
	// makes it a prefix.
	testName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z_][A-Za-z0-9_]*\*?`)
	// repoPath is a path under internal/ or cmd/, possibly a glob or a
	// package followed by .Ident.
	repoPath = regexp.MustCompile(`(?:^|[^A-Za-z0-9_/.])(?:\./)?((?:internal|cmd)/[A-Za-z0-9_./*-]*)`)
	funcDecl = regexp.MustCompile(`(?m)^func ([A-Za-z_][A-Za-z0-9_]*)`)
)

// TestDocsNameWhatExists fails on a backticked Test/Benchmark/Fuzz/Example
// name in the documents that no func of the module (benchmark/ included)
// declares — a name ending in * is a prefix, which must match at least
// one — and on a backticked internal/… or cmd/… path that does not exist.
func TestDocsNameWhatExists(t *testing.T) {
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcDecl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		var missing []string
		for _, span := range backticked.FindAllString(string(src), -1) {
			for _, name := range testName.FindAllString(span, -1) {
				if !nameDeclared(declared, name) {
					missing = append(missing, name)
				}
			}
			for _, m := range repoPath.FindAllStringSubmatch(span, -1) {
				if p := strings.TrimRight(m[1], "./"); !pathExists(p) {
					missing = append(missing, p)
				}
			}
		}
		sort.Strings(missing)
		for i, m := range missing {
			if i == 0 || m != missing[i-1] {
				t.Errorf("%s names %s, which the module does not have", doc, m)
			}
		}
	}
}

// nameDeclared reports whether name, or a name it is the prefix of when it
// ends in *, is declared.
func nameDeclared(declared map[string]bool, name string) bool {
	prefix, isPrefix := strings.CutSuffix(name, "*")
	if !isPrefix {
		return declared[name]
	}
	for d := range declared {
		if strings.HasPrefix(d, prefix) {
			return true
		}
	}
	return false
}

// pathExists reports whether p names a file or directory, a glob matching
// one, or a package followed by .Ident.
func pathExists(p string) bool {
	if strings.Contains(p, "*") {
		m, _ := filepath.Glob(p)
		return len(m) > 0
	}
	if _, err := os.Stat(p); err == nil {
		return true
	}
	i := strings.LastIndex(p, ".")
	if i < 0 || i+1 == len(p) || p[i+1] < 'A' || p[i+1] > 'Z' {
		return false
	}
	st, err := os.Stat(p[:i])
	return err == nil && st.IsDir()
}
