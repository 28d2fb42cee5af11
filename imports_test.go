package repro

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestOneSerialiser is the tree-wide guard behind "one codec for
// durable state": internal/wire is the only serialiser of model, raft
// and mesh bytes, so no Go file — tests included — may import
// encoding/gob. A reflective second format beside the wire frames is
// how the tree once had three encodings of raft.PersistentState.
func TestOneSerialiser(t *testing.T) {
	const banned = "encoding/" + "gob" // split so this file passes a grep for the import
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		files++
		if slices.Contains(importsOf(t, path), banned) {
			t.Errorf("%s imports %s; encode it as an internal/wire frame", path, banned)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("walked only %d Go files; the guard is not looking at the tree", files)
	}
}

// TestChaosHoldsNoDirectoryMirror guards "one copy of the membership
// policy": the chaos oracles drive internal/cluster and read its
// directory through it, so no non-test file of internal/chaos may import
// the directory state machine or the wire codec — the two packages a
// private mirror of the control plane is built from.
func TestChaosHoldsNoDirectoryMirror(t *testing.T) {
	banned := map[string]bool{"repro/internal/directory": true, "repro/internal/wire": true}
	paths, err := filepath.Glob("internal/chaos/*.go")
	if err != nil || len(paths) < 10 {
		t.Fatalf("found %d files in internal/chaos (err %v); the guard is not looking at the package", len(paths), err)
	}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		for _, p := range importsOf(t, path) {
			if banned[p] {
				t.Errorf("%s imports %s; drive cluster.System instead of mirroring it", path, p)
			}
		}
	}
}

// importsOf lists the import paths of one Go file.
func importsOf(t *testing.T, path string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		out = append(out, p)
	}
	return out
}
