package repro

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
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
	fset := token.NewFileSet()
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
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == banned {
				t.Errorf("%s imports %s; encode it as an internal/wire frame", fset.Position(imp.Pos()), banned)
			}
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
