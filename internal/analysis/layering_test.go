package analysis_test

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestLayering checks every import in the module against the dependency
// order of DESIGN §8: a package imports only packages of an earlier layer.
func TestLayering(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	layers := designLayers(t, filepath.Join(root, "DESIGN.md"))
	cmd := exec.Command("go", "list", "-deps", "-json=ImportPath,Imports,Standard", "./...")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p struct {
			ImportPath string
			Imports    []string
			Standard   bool
		}
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("decoding go list output: %v", err)
		}
		if p.Standard {
			continue
		}
		from := group(p.ImportPath)
		fromLayer, ok := layers[from]
		if !ok {
			t.Errorf("%s: %s is not placed in DESIGN §8", p.ImportPath, from)
			continue
		}
		for _, imp := range p.Imports {
			to := group(imp)
			if toLayer, ok := layers[to]; ok && to != from && toLayer >= fromLayer {
				t.Errorf("%s imports %s, but DESIGN §8 puts %s below %s", p.ImportPath, imp, from, to)
			}
		}
	}
}

// group names a module package as DESIGN §8 does: repro/internal/x/... is
// x, everything under cmd/ is cmd/*, and the root is repro.
func group(path string) string {
	rest, ok := strings.CutPrefix(path, "repro/")
	switch {
	case !ok:
		return path
	case strings.HasPrefix(rest, "internal/"):
		name, _, _ := strings.Cut(strings.TrimPrefix(rest, "internal/"), "/")
		return name
	}
	top, _, _ := strings.Cut(rest, "/")
	return top + "/*"
}

// designLayers reads the first paragraph of DESIGN §8 — layers separated
// by →, each naming its packages in backquotes — into a map from package
// to layer index.
func designLayers(t *testing.T, path string) map[string]int {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading DESIGN.md: %v", err)
	}
	_, sec, ok := strings.Cut(string(b), "\n## 8.")
	if !ok {
		t.Fatal("DESIGN.md has no §8")
	}
	_, sec, _ = strings.Cut(sec, "\n\n")
	para, _, _ := strings.Cut(sec, "\n\n")
	name := regexp.MustCompile("`([^`]+)`")
	layers := make(map[string]int)
	for i, layer := range strings.Split(para, "→") {
		for _, m := range name.FindAllStringSubmatch(layer, -1) {
			layers[m[1]] = i
		}
	}
	return layers
}
