package repro

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
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

// TestChaosBuildsNoPrivateRaftWorld guards "evidence from the system
// itself": a chaos track that needs raft groups drives cluster.System,
// so no non-test file of internal/chaos builds raft nodes or a simulated
// raft network, or runs an RTT→election-band tuner of its own — the
// cluster's tuning loop is the one caller of health.Retune. Raft alone,
// over every small schedule, is internal/raft's exhaustive checker's.
func TestChaosBuildsNoPrivateRaftWorld(t *testing.T) {
	banned := map[string]string{
		"raft.NewNode":       "build raft nodes",
		"simnet.NewGroup":    "build a raft network",
		"health.NewRTTStats": "track RTTs",
	}
	paths, err := filepath.Glob("internal/chaos/*.go")
	if err != nil || len(paths) < 10 {
		t.Fatalf("found %d files in internal/chaos (err %v); the guard is not looking at the package", len(paths), err)
	}
	fset := token.NewFileSet()
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			at := fset.Position(sel.Pos())
			if sel.Sel.Name == "Retune" {
				t.Errorf("%s selects .Retune; the cluster's tuning loop retunes its peers", at)
			}
			if pkg, ok := sel.X.(*ast.Ident); ok {
				if what, ok := banned[pkg.Name+"."+sel.Sel.Name]; ok {
					t.Errorf("%s calls %s.%s: a chaos track must not %s of its own; drive cluster.System", at, pkg.Name, sel.Sel.Name, what)
				}
			}
			return true
		})
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

// TestRoundNodesAreSansIO guards "only the driver touches the network"
// for both per-peer round state machines: sac.Peer, stepped by sac.Run
// in sac.go, and core.node, stepped by System.AggregateRound in core.go.
// The files that declare either type or any of its methods start no
// goroutine, import no clock, lock, socket or file (time, sync, net,
// os), never select a transport.Network method — Send, Drain, Crash,
// Alive, Recycle — on anything, and never select Record, so only a
// driver charges a byte. What a peer or node wants done leaves through
// Ready, and its driver, in a file of its own, does it.
// A retired input stays retired: sac.Peer's files never name Down or the
// crash plan (CrashPlan, BeforeShares, AfterShares), so a peer learns of
// a crash only from silence; core.node's files never name RoundSpec,
// Fraction or Perm, so the FedAvg leader picks its participants from what
// arrives, and the FedAvg leader and how many uploads it wants are fixed
// when the round begins — in any non-test file of internal/core, the
// plan literal in core.go's System.plan is the one writer of a fed and
// of a want field, and nothing assigns one after it.
func TestRoundNodesAreSansIO(t *testing.T) {
	bannedImports := map[string]bool{"time": true, "sync": true, "net": true, "os": true}
	bannedSelectors := map[string]bool{"Send": true, "Drain": true, "Crash": true, "Alive": true, "Recycle": true, "Record": true}
	for _, machine := range []struct {
		dir, typ, driver string
		never, planned   []string
	}{
		{"internal/sac", "Peer", "sac.go", []string{"Down", "CrashPlan", "BeforeShares", "AfterShares"}, nil},
		{"internal/core", "node", "core.go", []string{"RoundSpec", "Fraction", "Perm"}, []string{"fed", "want"}},
	} {
		planners := map[string]int{}
		name := filepath.Base(machine.dir) + "." + machine.typ
		paths, err := filepath.Glob(machine.dir + "/*.go")
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		var files []string
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				fd, _ := decl.(*ast.FuncDecl)
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							if sel, ok := lhs.(*ast.SelectorExpr); ok && slices.Contains(machine.planned, sel.Sel.Name) {
								t.Errorf("%s assigns .%s; the round's plan fixes it when the round begins", fset.Position(n.Pos()), sel.Sel.Name)
							}
						}
					case *ast.KeyValueExpr:
						if key, ok := n.Key.(*ast.Ident); ok && slices.Contains(machine.planned, key.Name) {
							if fd == nil || fd.Name.Name != "plan" || filepath.Base(path) != machine.driver {
								t.Errorf("%s writes %s outside System.plan's literal", fset.Position(n.Pos()), key.Name)
							}
							planners[key.Name]++
						}
					}
					return true
				})
			}
			declares := false
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					declares = declares || d.Recv != nil && recvName(d.Recv.List[0].Type) == "(*"+machine.typ+")"
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.Name == machine.typ {
							declares = true
						}
					}
				}
			}
			if !declares {
				continue
			}
			files = append(files, path)
			for _, imp := range importsOf(t, path) {
				if bannedImports[imp] {
					t.Errorf("%s declares %s and imports %q", path, name, imp)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					t.Errorf("%s: %s's file starts a goroutine", fset.Position(n.Pos()), name)
				case *ast.SelectorExpr:
					if bannedSelectors[n.Sel.Name] {
						t.Errorf("%s: %s's file selects .%s; only the driver touches a network or a traffic counter", fset.Position(n.Pos()), name, n.Sel.Name)
					}
				case *ast.Ident:
					if slices.Contains(machine.never, n.Name) {
						t.Errorf("%s: %s's file names %s, which only its driver may know", fset.Position(n.Pos()), name, n.Name)
					}
				}
				return true
			})
		}
		for _, field := range machine.planned {
			if planners[field] != 1 {
				t.Errorf("%s has %d writers of %s in plan literals; want System.plan's alone", machine.dir, planners[field], field)
			}
		}
		if len(files) == 0 || slices.Contains(files, filepath.Join(machine.dir, machine.driver)) {
			t.Fatalf("%s is declared in %v; the guard wants it found, and apart from the driver in %s", name, files, machine.driver)
		}
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

// unsetKept lists the option fields no program sets that stay anyway,
// each with its reason. Only an open ROADMAP item is a reason: an option
// nobody sets is a constant with a name.
var unsetKept = func() map[string]string {
	m := map[string]string{}
	keep := func(reason string, names ...string) {
		for _, name := range names {
			m["repro/internal/"+name] = reason
		}
	}
	keep("roadmap item 5: a chaos failure attaches its trace",
		"chaos.Campaign.Telemetry", "chaos.StabilityOptions.Telemetry")
	keep("roadmap item 7: seeded shares set the mask divider's scale",
		"secretshare.MaskDivider.Scale")
	return m
}()

// TestEveryOptionIsSetByAProgram is the guard behind "serve the settings
// that exist", as TestEveryFunctionShipsInAProgram is for functions:
// every exported field of an exported struct type under internal/ is
// written by some non-test code of the module outside the normalize or
// validate that defaults it, or is in unsetKept with a reason. A write
// is a composite-literal key, an assignment or ++/-- to the field or to
// one of its map's elements, or its address taken; a write through a
// promoted field also sets the embedded field it is promoted from. An
// assignment under `if x.F == <zero> { x.F = c }` is a default wherever
// it stands, not a write. The check type-checks the module's packages
// from source, so a field is known by its object, not by its name.
func TestEveryOptionIsSetByAProgram(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	m := loadModule(t)
	info := m.info
	options := map[*types.Var]string{} // field → "pkg.Type.Field"
	for _, pkg := range m.pkgs {
		if !strings.HasPrefix(pkg.Path(), "repro/internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			for i := 0; ok && i < st.NumFields(); i++ {
				if fld := st.Field(i); fld.Exported() {
					options[fld] = pkg.Path() + "." + name + "." + fld.Name()
				}
			}
		}
	}
	if len(options) < 100 {
		t.Fatalf("found %d option fields; the guard is not looking at the tree", len(options))
	}
	t.Logf("%d option fields under internal/, %d of them in unsetKept", len(options), len(unsetKept))

	set := map[*types.Var]bool{}
	field := func(e ast.Expr) {
		e = ast.Unparen(e)
		if ix, ok := e.(*ast.IndexExpr); ok {
			if _, isMap := info.Types[ix.X].Type.Underlying().(*types.Map); isMap {
				e = ast.Unparen(ix.X)
			}
		}
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return
		}
		s := info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return
		}
		set[s.Obj().(*types.Var).Origin()] = true
		typ := s.Recv()
		for _, i := range s.Index()[:len(s.Index())-1] { // the embedded fields it is promoted through
			if ptr, ok := typ.Underlying().(*types.Pointer); ok {
				typ = ptr.Elem()
			}
			embedded := typ.Underlying().(*types.Struct).Field(i)
			set[embedded.Origin()] = true
			typ = embedded.Type()
		}
	}
	defaults := map[*ast.AssignStmt]bool{} // x.F = c under if x.F == <zero>
	for _, file := range m.files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && (fn.Name.Name == "normalize" || fn.Name.Name == "validate") {
				continue // defaulting a field is not setting it
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IfStmt:
					cond, ok := ast.Unparen(n.Cond).(*ast.BinaryExpr)
					if !ok || cond.Op != token.EQL || !isZeroValue(info.Types[cond.Y]) {
						break
					}
					for _, stmt := range n.Body.List {
						if as, ok := stmt.(*ast.AssignStmt); ok && len(as.Lhs) == 1 &&
							types.ExprString(as.Lhs[0]) == types.ExprString(cond.X) {
							defaults[as] = true
						}
					}
				case *ast.AssignStmt:
					if defaults[n] {
						break
					}
					for _, lhs := range n.Lhs {
						field(lhs)
					}
				case *ast.IncDecStmt:
					field(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						field(n.X)
					}
				case *ast.CompositeLit:
					st, ok := info.Types[n].Type.Underlying().(*types.Struct)
					for i, elt := range n.Elts {
						if kv, keyed := elt.(*ast.KeyValueExpr); keyed {
							if key, ok := kv.Key.(*ast.Ident); ok {
								if v, ok := info.Uses[key].(*types.Var); ok {
									set[v.Origin()] = true
								}
							}
						} else if ok {
							set[st.Field(i).Origin()] = true
						}
					}
				}
				return true
			})
		}
	}

	var unset []string
	declared := map[string]bool{}
	for fld, name := range options {
		declared[name] = true
		if set[fld] && unsetKept[name] != "" {
			t.Errorf("unsetKept entry %s is now set by a program; drop it", name)
		}
		if !set[fld] && unsetKept[name] == "" {
			unset = append(unset, fmt.Sprintf("%s: %s", m.fset.Position(fld.Pos()), name))
		}
	}
	slices.Sort(unset)
	for _, u := range unset {
		t.Errorf("%s is set by no program: make it the constant its default is, or ship the program that sets it", u)
	}
	for name, reason := range unsetKept {
		if !strings.HasPrefix(reason, "roadmap item ") {
			t.Errorf("unsetKept entry %s: reason %q names no roadmap item", name, reason)
		}
		if !declared[name] {
			t.Errorf("unsetKept entry %s no longer exists; drop it", name)
		}
	}
}

// isZeroValue reports whether an expression is nil or a constant equal
// to its type's zero value.
func isZeroValue(tv types.TypeAndValue) bool {
	switch v := tv.Value; {
	case tv.IsNil():
		return true
	case v == nil:
		return false
	case v.Kind() == constant.String:
		return constant.StringVal(v) == ""
	case v.Kind() == constant.Bool:
		return !constant.BoolVal(v)
	default:
		return constant.Sign(v) == 0
	}
}

// module is the module's non-test code — internal/, cmd/ and bench/ —
// type-checked from source: one object per declaration across the
// module, its packages in dependency order.
type module struct {
	fset  *token.FileSet
	info  *types.Info
	files []*ast.File
	pkgs  []*types.Package
}

// loaded is the module as loadModule first type-checked it; the guards
// only read it, so they share one.
var loaded *module

// loadModule type-checks the module's non-test files and the standard
// library from source, once per test binary.
func loadModule(t *testing.T) module {
	t.Helper()
	if loaded != nil {
		return *loaded
	}
	out, err := exec.Command("go", "list", "-deps", "-f",
		`{{if not .Standard}}{{.ImportPath}}{{"\t"}}{{.Dir}}{{"\t"}}{{join .GoFiles " "}}{{end}}`, "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	m := module{
		fset: token.NewFileSet(),
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	imp := moduleImporter{std: importer.ForCompiler(m.fset, "source", nil), pkgs: map[string]*types.Package{}}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.SplitN(line, "\t", 3)
		if len(f) != 3 || f[2] == "" {
			continue // a package of test files only
		}
		var pkgFiles []*ast.File
		for _, name := range strings.Fields(f[2]) {
			file, err := parser.ParseFile(m.fset, filepath.Join(f[1], name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			pkgFiles = append(pkgFiles, file)
		}
		pkg, err := (&types.Config{Importer: imp}).Check(f[0], m.fset, pkgFiles, m.info)
		if err != nil {
			t.Fatalf("type-check %s: %v", f[0], err)
		}
		imp.pkgs[f[0]] = pkg
		m.files = append(m.files, pkgFiles...)
		m.pkgs = append(m.pkgs, pkg)
	}
	loaded = &m
	return m
}

// TestEveryInterfaceHasTwoImplementations is the guard behind "an
// abstraction earns its keep": every top-level interface declared in
// non-test code under internal/, exported or not, is implemented by at
// least two named non-interface types of the module's non-test code
// (cmd/ and bench/ included), by value or by pointer. An
// interface with one implementation is that type's method set with a
// second name; take the type instead.
func TestEveryInterfaceHasTwoImplementations(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	m := loadModule(t)
	var ifaces []*types.TypeName
	var named []*types.Named
	for _, obj := range m.info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		n, ok := tn.Type().(*types.Named)
		switch {
		case !ok || n.TypeParams().Len() > 0:
		case !types.IsInterface(n):
			named = append(named, n)
		case tn.Parent() == tn.Pkg().Scope() && strings.HasPrefix(tn.Pkg().Path(), "repro/internal/"):
			ifaces = append(ifaces, tn)
		}
	}
	if len(ifaces) < 5 || len(named) < 200 {
		t.Fatalf("found %d interfaces and %d named types; the guard is not looking at the tree", len(ifaces), len(named))
	}
	slices.SortFunc(ifaces, func(a, b *types.TypeName) int {
		return strings.Compare(a.Pkg().Path()+"."+a.Name(), b.Pkg().Path()+"."+b.Name())
	})
	var census []string
	for _, tn := range ifaces {
		iface := tn.Type().Underlying().(*types.Interface)
		if !iface.IsMethodSet() {
			continue // a type constraint, not a method set
		}
		var impls []string
		for _, n := range named {
			if types.Implements(n, iface) || types.Implements(types.NewPointer(n), iface) {
				impls = append(impls, n.Obj().Pkg().Name()+"."+n.Obj().Name())
			}
		}
		slices.Sort(impls)
		name := tn.Pkg().Name() + "." + tn.Name()
		census = append(census, fmt.Sprintf("%s %d", name, len(impls)))
		if len(impls) < 2 {
			t.Errorf("%s: interface %s has %d implementation(s) %v: take the type instead", m.fset.Position(tn.Pos()), name, len(impls), impls)
		}
	}
	t.Logf("implementations per interface: %s", strings.Join(census, ", "))
}

// exportsKept lists the exported top-level names under internal/ that
// no other package's non-test code names and that stay exported anyway,
// each with its reason, of the three kinds kept admits.
var exportsKept = func() map[string]string {
	m := map[string]string{}
	keep := func(reason string, names ...string) {
		for _, name := range names {
			m["repro/internal/"+name] = reason
		}
	}
	keep("reference: the lowered conv/matmul path internal/nn's conv oracle tests hold the direct kernels to",
		"tensor.MatMul", "tensor.MatMulTransB", "tensor.Im2Col", "tensor.Col2Im")
	keep("test helper: internal/nn's tests build and compare tensors with it",
		"tensor.MustFromSlice", "tensor.Equal", "tensor.AllClose")
	keep("test helper: tests of six packages pin the worker budget with it",
		"tensor.SetParallelism")
	keep("test helper: the fl, secretshare and sac kernel tests plant values around its boundaries",
		"tensor.Tile")
	keep("roadmap item 7: the mask divider is what seeded shares start from",
		"secretshare.MaskDivider")
	keep("roadmap item 10: Figs. 6–9 re-run on the paper's own model",
		"nn.PaperCNN")
	return m
}()

// TestEveryExportIsNamedOutsideItsPackage is the guard behind "the
// exported surface is the contract": every exported top-level type,
// func, var and const under internal/ is named by another package's
// non-test code, or is in exportsKept with a reason. A name reachable
// from a named one counts as named: a type in the signature of a named
// function or of an exported method of a named type, or in an exported
// field of a named type, and a constant whose type is named. Whatever
// only its own package names is that package's internals, and is
// spelled so. Methods of exported types are not held to the rule yet.
func TestEveryExportIsNamedOutsideItsPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	m := loadModule(t)
	internal := func(obj types.Object) bool {
		return obj.Pkg() != nil && strings.HasPrefix(obj.Pkg().Path(), "repro/internal/")
	}
	dir := func(pos token.Pos) string { return filepath.Dir(m.fset.Position(pos).Filename) }
	named := map[types.Object]bool{}
	var work []types.Object
	mark := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if internal(obj) && !named[obj] {
			named[obj] = true
			work = append(work, obj)
		}
	}
	for id, obj := range m.info.Uses {
		if internal(obj) && dir(id.Pos()) != dir(obj.Pos()) {
			mark(obj)
		}
	}
	seen := map[types.Type]bool{}
	var reach func(types.Type)
	reach = func(typ types.Type) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch typ := typ.(type) {
		case *types.Named:
			mark(typ.Obj())
			for i := 0; i < typ.TypeArgs().Len(); i++ {
				reach(typ.TypeArgs().At(i))
			}
		case *types.Pointer:
			reach(typ.Elem())
		case *types.Slice:
			reach(typ.Elem())
		case *types.Array:
			reach(typ.Elem())
		case *types.Chan:
			reach(typ.Elem())
		case *types.Map:
			reach(typ.Key())
			reach(typ.Elem())
		case *types.Signature:
			for _, tuple := range []*types.Tuple{typ.Params(), typ.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					reach(tuple.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < typ.NumFields(); i++ {
				if typ.Field(i).Exported() {
					reach(typ.Field(i).Type())
				}
			}
		case *types.Interface:
			for i := 0; i < typ.NumMethods(); i++ {
				if typ.Method(i).Exported() {
					reach(typ.Method(i).Type())
				}
			}
		}
	}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		if tn, ok := obj.(*types.TypeName); ok {
			reach(tn.Type().Underlying())
			if n, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < n.NumMethods(); i++ {
					if n.Method(i).Exported() {
						reach(n.Method(i).Type())
					}
				}
			}
		} else {
			reach(obj.Type())
		}
	}

	exported, unnamed := 0, 0
	var unreached []string
	declared := map[string]bool{}
	for _, pkg := range m.pkgs {
		if !strings.HasPrefix(pkg.Path(), "repro/internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			exported++
			full := pkg.Path() + "." + name
			declared[full] = true
			ok := named[obj]
			if c, isConst := obj.(*types.Const); isConst && !ok {
				if n, isNamed := c.Type().(*types.Named); isNamed && named[n.Obj()] {
					ok = true
				}
			}
			switch {
			case !ok && exportsKept[full] == "":
				unnamed++
				unreached = append(unreached, fmt.Sprintf("%s: %s", m.fset.Position(obj.Pos()), full))
			case !ok:
				unnamed++
			case exportsKept[full] != "":
				t.Errorf("exportsKept entry %s is now named by another package; drop it", full)
			}
		}
	}
	if exported < 200 {
		t.Fatalf("found %d exported names; the guard is not looking at the tree", exported)
	}
	t.Logf("%d exported top-level names under internal/, %d named by no other package's code, %d of them in exportsKept", exported, unnamed, len(exportsKept))
	slices.Sort(unreached)
	for _, u := range unreached {
		t.Errorf("%s is named by no other package: unexport it, or name the caller that needs it", u)
	}
	for name, reason := range exportsKept {
		if !admitted(reason) {
			t.Errorf("exportsKept entry %s: reason %q is none of the three admitted kinds", name, reason)
		}
		if !declared[name] {
			t.Errorf("exportsKept entry %s no longer exists; drop it", name)
		}
	}
}

// moduleImporter hands the type checker the module's packages it has
// already checked, so one field is one object across the module, and
// the standard library from source.
type moduleImporter struct {
	std  types.Importer
	pkgs map[string]*types.Package
}

func (m moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
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
		"tensor.MatMul", "tensor.matMulTransA", "tensor.matMulTransAInto", "tensor.MatMulTransB", "tensor.transpose",
		"tensor.Im2Col", "tensor.im2ColInto", "tensor.im2ColShape", "tensor.Col2Im", "tensor.col2ImInto")
	keep("reference: the delta block layout compress.Config.MessageBytes charges for, pinned by the delta_* goldens and len(encoding) == closed form",
		"wire.appendQuantBlock", "wire.readQuantBlock", "wire.appendSparseBlock", "wire.readSparseBlock")
	keep("reference: the buffered decoder the streaming MeshDecoder is differentially tested and fuzzed against",
		"wire.decodeMeshPayload")
	keep("reference: what every divider test and fuzz target sums shares back with",
		"secretshare.reconstruct")
	keep("test helper: internal/sac's reference engine divides through Divider.Divide",
		"secretshare.ScalarDivider.Divide")
	keep("test helper: internal/nn's and internal/optim's tests build, index and compare tensors with it",
		"tensor.fromSlice", "tensor.MustFromSlice", "tensor.(*Tensor).Clone", "tensor.(*Tensor).At", "tensor.(*Tensor).Set",
		"tensor.(*Tensor).offset", "tensor.(*Tensor).Sum", "tensor.(*Tensor).Norm2", "tensor.Equal", "tensor.AllClose")
	keep("test helper: internal/integration's tests and cluster's example wait out the FedAvg layer's re-election with it",
		"cluster.(*System).WaitFedAvgLeader")
	keep("roadmap item 7: the mask divider is what seeded shares start from",
		"secretshare.MaskDivider.Name", "secretshare.MaskDivider.Divide", "secretshare.MaskDivider.DivideInto")
	keep("roadmap item 10: Figs. 6–9 re-run on the paper's own model",
		"nn.PaperCNN")
	return m
}()

// admitted reports whether a kept or exportsKept reason is of one of the
// three admitted kinds.
func admitted(reason string) bool {
	for _, kind := range []string{"reference: ", "test helper: ", "roadmap item "} {
		if strings.HasPrefix(reason, kind) {
			return true
		}
	}
	return false
}

// TestEveryFunctionShipsInAProgram is the guard behind "serve the
// traffic that exists": every function declared under internal/ is
// linked into at least one main package (cmd/* and bench), or
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
		if !admitted(reason) {
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
	if len(mains) < 6 {
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
