package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
	"regexp"
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

// TestOneRoadForMembershipChange guards "one rule and one road": raft
// decides when a configuration change may be appended
// (ErrConfChangePending), and exactly one non-test call site outside
// internal/raft — cluster's askLeader — proposes one and reads the
// answer. A second call site is a second place that has to know what a
// refusal means, which is how three of them once each appended a
// duplicate entry per poll.
func TestOneRoadForMembershipChange(t *testing.T) {
	var calls []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "internal/raft" || (path != "." && strings.HasPrefix(d.Name(), "."))) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "ProposeConfChange" {
					calls = append(calls, fset.Position(call.Pos()).String())
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1 || !strings.HasPrefix(filepath.ToSlash(calls[0]), "internal/cluster/") {
		t.Fatalf("ProposeConfChange is called at %v; want exactly one call, in internal/cluster (askLeader)", calls)
	}
}

// TestSACPeerIsSansIO guards "only the driver touches the network":
// sac.Peer is a pure state machine, so the files of internal/sac that
// declare it or any of its methods start no goroutine, import no clock,
// lock, socket or file (time, sync, net, os), and never select a
// transport.Network method — Send, Drain, Crash, Alive, Recycle — on
// anything. What a Peer wants done leaves through Ready, and sac.Run,
// in a file of its own, does it.
func TestSACPeerIsSansIO(t *testing.T) {
	bannedImports := map[string]bool{"time": true, "sync": true, "net": true, "os": true}
	bannedSelectors := map[string]bool{"Send": true, "Drain": true, "Crash": true, "Alive": true, "Recycle": true}
	paths, err := filepath.Glob("internal/sac/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var peerFiles []string
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		declaresPeer := false
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				declaresPeer = declaresPeer || d.Recv != nil && recvName(d.Recv.List[0].Type) == "(*Peer)"
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.Name == "Peer" {
						declaresPeer = true
					}
				}
			}
		}
		if !declaresPeer {
			continue
		}
		peerFiles = append(peerFiles, path)
		for _, imp := range importsOf(t, path) {
			if bannedImports[imp] {
				t.Errorf("%s declares sac.Peer and imports %q", path, imp)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				t.Errorf("%s: sac.Peer's file starts a goroutine", fset.Position(n.Pos()))
			case *ast.SelectorExpr:
				if bannedSelectors[n.Sel.Name] {
					t.Errorf("%s: sac.Peer's file selects .%s; only the driver touches a transport.Network", fset.Position(n.Pos()), n.Sel.Name)
				}
			}
			return true
		})
	}
	if len(peerFiles) == 0 || slices.Contains(peerFiles, filepath.Join("internal", "sac", "sac.go")) {
		t.Fatalf("sac.Peer is declared in %v; the guard wants it found, and apart from the driver in sac.go", peerFiles)
	}
}

// TestOneLoopBodyForARaftMember guards "one loop body, two clocks":
// raft.Loop.Pump (internal/raft/loop.go) is the only code that drains a
// Ready, so it is the only place the order persist → send → apply →
// report is written, and the simulator and the daemon cannot drift
// apart. Outside internal/raft, no non-test file that imports the raft
// package selects .Ready on anything (sac.Peer has a Ready of its own;
// its files do not import raft), and none calls .Persist() — a member's
// image reaches its store through the loop — except cluster.ReplacePeer,
// whose hand-off ships the image to a successor. The loop itself stays a
// state machine's shell: no clock, lock, socket, file or codec imported
// and no goroutine started.
func TestOneLoopBodyForARaftMember(t *testing.T) {
	const raftPkg = "repro/internal/raft"
	const loopFile = "internal/raft/loop.go"
	bannedImports := map[string]bool{"time": true, "sync": true, "net": true, "os": true, "repro/internal/wire": true}
	for _, imp := range importsOf(t, loopFile) {
		if bannedImports[imp] {
			t.Errorf("%s imports %q; the loop's owner brings the clock, the network and the disk", loopFile, imp)
		}
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, loopFile, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			t.Errorf("%s: the loop starts a goroutine", fset.Position(g.Pos()))
		}
		return true
	})

	files := 0
	var handoffs []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "internal/raft" || (path != "." && strings.HasPrefix(d.Name(), "."))) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if !slices.Contains(importsOf(t, path), raftPkg) {
			return nil
		}
		files++
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				at := fset.Position(sel.Pos())
				switch sel.Sel.Name {
				case "Ready":
					t.Errorf("%s selects .Ready; feed the member through its raft.Loop, whose Pump drains it", at)
				case "Persist":
					if fn != nil && fn.Name.Name == "ReplacePeer" && filepath.ToSlash(path) == "internal/cluster/churn.go" {
						handoffs = append(handoffs, at.String())
					} else {
						t.Errorf("%s selects .Persist; a member's image reaches its store through raft.Loop", at)
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 10 || len(handoffs) == 0 {
		t.Fatalf("walked %d files that import %s and found %d hand-offs in cluster.ReplacePeer; the guard is not looking at the tree", files, raftPkg, len(handoffs))
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

// kept lists the functions under internal/ that no program links and
// that stay anyway, each with its reason. Three kinds of reason are
// admitted, and the reason's prefix says which: a reference
// implementation a test compares the shipped path against, a helper
// another package's tests call, and a function an open ROADMAP item
// names. Anything else arrives with its caller.
var kept = func() map[string]string {
	m := map[string]string{}
	keep := func(reason string, names ...string) {
		for _, name := range names {
			m["repro/internal/"+name] = reason
		}
	}
	keep("reference: the lowered conv/matmul path nn's conv oracle, FuzzConvDifferential and tensor's kernel tests hold the direct kernels to",
		"tensor.MatMul", "tensor.MatMulTransA", "tensor.MatMulTransAInto", "tensor.MatMulTransB", "tensor.Transpose",
		"tensor.Im2Col", "tensor.Im2ColInto", "tensor.Im2ColShape", "tensor.Col2Im", "tensor.Col2ImInto")
	keep("reference: the delta block layout compress.Config.MessageBytes charges for, pinned by the delta_* goldens and len(encoding) == closed form",
		"wire.appendQuantBlock", "wire.readQuantBlock", "wire.appendSparseBlock", "wire.readSparseBlock")
	keep("reference: the buffered decoder the streaming MeshDecoder is differentially tested and fuzzed against",
		"wire.DecodeMeshPayload")
	keep("reference: what every divider test and fuzz target sums shares back with",
		"secretshare.Reconstruct")
	keep("test helper: internal/sac's reference engine divides through Divider.Divide",
		"secretshare.ScalarDivider.Divide")
	keep("test helper: internal/nn's and internal/optim's tests build, index and compare tensors with it",
		"tensor.FromSlice", "tensor.MustFromSlice", "tensor.(*Tensor).Clone", "tensor.(*Tensor).At", "tensor.(*Tensor).Set",
		"tensor.(*Tensor).offset", "tensor.(*Tensor).Sum", "tensor.(*Tensor).Norm2", "tensor.Equal", "tensor.AllClose")
	keep("roadmap item 7: the mask divider is what seeded shares start from",
		"secretshare.MaskDivider.Name", "secretshare.MaskDivider.Divide", "secretshare.MaskDivider.DivideInto")
	// The floor lets one PR retire only a few tests, and each of these is
	// pinned by tests of its own: ROADMAP item 6 lists them as the rest of
	// PR 20's sweep, to be deleted with those tests.
	keep("roadmap item 6: unlinked substrate still to delete, with the tests that pin it",
		"nn.NewBatchNorm2D", "nn.(*BatchNorm2D).Name", "nn.(*BatchNorm2D).Params", "nn.(*BatchNorm2D).Forward", "nn.(*BatchNorm2D).Backward",
		"nn.(*Model).schema", "nn.(*Model).restore", "nn.(*Model).Save", "nn.(*Model).Load", "nn.(*Model).SaveQuantized", "nn.(*Model).AppendCheckpoint",
		"wire.QuantCheckpointPayloadSize", "wire.QuantCheckpointFrameSize", "wire.AppendQuantCheckpointFrame",
		"wire.DecodeQuantCheckpointPayload", "wire.ReadQuantCheckpointFrame",
		"optim.NewSGD", "optim.(*SGD).Name", "optim.(*SGD).Step", "optim.(*Adam).Reset",
		"dp.Laplace.Name", "dp.Laplace.Perturb", "dp.sign",
		"telemetry.Diff", "costmodel.QuantBlockBytes", "costmodel.SparseBlockBytes",
		"core.(*Config).PeerSubgroup", "core.(*MultiLayerTopology).Subgroups",
		"tensor.SameShape", "tensor.Add", "tensor.Sub", "tensor.Mul", "tensor.Scaled", "tensor.(*Tensor).AddInPlace",
		"tensor.(*Tensor).SubInPlace", "tensor.(*Tensor).Scale", "tensor.(*Tensor).Apply", "tensor.(*Tensor).Max", "tensor.(*Tensor).ArgMax")
	return m
}()

// TestEveryFunctionShipsInAProgram is the guard behind "serve the
// traffic that exists": every function declared under internal/ is
// linked into at least one main package (cmd/*, examples/*, bench), or
// is in kept with a reason. It asks the linker rather than a grep:
// each program is built with inlining off, so a called function
// survives as a symbol, and the union of `go tool nm` is compared with
// the parsed declarations.
func TestEveryFunctionShipsInAProgram(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every main package")
	}
	linked := linkedInternalFuncs(t)
	declared := declaredInternalFuncs(t)
	if len(linked) < 500 || len(declared) < 500 {
		t.Fatalf("found %d linked and %d declared functions; the guard is not looking at the tree", len(linked), len(declared))
	}
	t.Logf("%d functions declared under internal/, %d of them in kept", len(declared), len(kept))
	var unreached []string
	for name, pos := range declared {
		if !linked[name] && kept[name] == "" {
			unreached = append(unreached, pos+": "+name)
		}
	}
	slices.Sort(unreached)
	for _, u := range unreached {
		t.Errorf("%s is linked into no program: delete it, or ship its caller with it", u)
	}
	for name, reason := range kept {
		if !strings.HasPrefix(reason, "reference: ") && !strings.HasPrefix(reason, "test helper: ") && !strings.HasPrefix(reason, "roadmap item ") {
			t.Errorf("kept entry %s: reason %q is none of the three admitted kinds", name, reason)
		}
		switch {
		case declared[name] == "":
			t.Errorf("kept entry %s no longer exists; drop it", name)
		case linked[name]:
			t.Errorf("kept entry %s is now linked into a program; drop it", name)
		}
	}
}

// linkedInternalFuncs builds every main package of the module with
// inlining off and returns the repro/internal/ function symbols their
// binaries contain, closures, method values, go/defer wrappers and
// generic instantiations folded into the declaring function.
func linkedInternalFuncs(t *testing.T) map[string]bool {
	t.Helper()
	out, err := exec.Command("go", "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	mains := strings.Fields(string(out))
	if len(mains) < 10 {
		t.Fatalf("found only %d main packages: %v", len(mains), mains)
	}
	suffix := regexp.MustCompile(`(\.func\d+|\.gowrap\d+|\.deferwrap\d+|-fm|\.\d+)+$`)
	linked := map[string]bool{}
	dir := t.TempDir()
	for i, pkg := range mains {
		bin := filepath.Join(dir, strconv.Itoa(i))
		if out, err := exec.Command("go", "build", "-gcflags=all=-l", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
		syms, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", pkg, err)
		}
		for _, line := range strings.Split(string(syms), "\n") {
			f := strings.SplitN(strings.TrimSpace(line), " ", 3)
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") && strings.HasPrefix(f[2], "repro/internal/") {
				linked[suffix.ReplaceAllString(dropTypeArgs(f[2]), "")] = true
			}
		}
	}
	return linked
}

// dropTypeArgs removes the bracketed instantiation from a generic
// symbol: readOne[go.shape.struct { Names []string }] is readOne.
func dropTypeArgs(sym string) string {
	open := strings.IndexByte(sym, '[')
	if open < 0 {
		return sym
	}
	depth := 0
	for i := open; i < len(sym); i++ {
		switch sym[i] {
		case '[':
			depth++
		case ']':
			if depth--; depth == 0 {
				return sym[:open] + dropTypeArgs(sym[i+1:])
			}
		}
	}
	return sym[:open]
}

// declaredInternalFuncs maps every function and method with a body in
// a non-test file under internal/ (init excepted: the runtime calls
// it) to its position, under the name the linker gives it.
func declaredInternalFuncs(t *testing.T) map[string]string {
	t.Helper()
	declared := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "repro/" + filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || (fn.Recv == nil && fn.Name.Name == "init") {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				name = recvName(fn.Recv.List[0].Type) + "." + name
			}
			declared[pkg+"."+name] = fset.Position(fn.Pos()).String()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return declared
}

// recvName spells a receiver type as the linker does: T or (*T), type
// parameters dropped.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return "(*" + recvName(e.X) + ")"
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
