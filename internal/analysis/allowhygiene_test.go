package analysis_test

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// allowRe matches a //lint:allow directive anywhere in a line, capturing
// the pass name and whatever justification follows it. The pass must be
// an identifier, and a directive preceded by a quote is a string literal
// (allow.go's own allowPrefix), not a directive.
var allowRe = regexp.MustCompile(`("?)//lint:allow\s+([A-Za-z][A-Za-z0-9]*)\b[ \t]*(.*)$`)

// TestAllowsCarryJustifications walks every Go source file in the module
// and fails on any //lint:allow directive with no written reason. The
// driver reports these too (analysis.Run), but only
// when it runs; this test makes the rule unskippable — a suppression is a
// reviewed decision, and the review lives in the justification text.
func TestAllowsCarryJustifications(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	var bad []string
	err = filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			// Golden fixtures deliberately include malformed directives the
			// framework's own tests assert on.
			if info.Name() == "testdata" || strings.HasPrefix(info.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1024*1024), 1024*1024)
		for line := 1; sc.Scan(); line++ {
			m := allowRe.FindStringSubmatch(sc.Text())
			if m == nil || m[1] == `"` {
				continue
			}
			if strings.TrimSpace(m[3]) == "" {
				rel, _ := filepath.Rel(root, path)
				bad = append(bad, rel+":"+strconv.Itoa(line)+": //lint:allow "+m[2]+" has no justification")
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatalf("walking module: %v", err)
	}
	for _, b := range bad {
		t.Error(b)
	}
}

// moduleRoot finds the directory holding go.mod, walking up from the
// test's working directory.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}
