// The seed-sweep guards: no declaration under internal/ or risk/,
// exported or not, that no program reaches, and no exported struct
// field under internal/ or risk/ that some program reads and none can
// set. One scan type-checks every package's non-test files (stdlib
// only: go/parser + go/types, packages from `go list`) for both: the
// first builds a graph from each top-level declaration to the
// declarations it mentions and walks it from every main package, the
// second sorts every mention of a field into writes and reads.
package repro_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// keptUnreached is the only place an unreached declaration may live on:
// one row per top-level identifier or method (an unreached type's row
// covers its methods), each with the reason it stays. What a row uses
// stays with it. A row whose identifier is gone, or is reached by a
// program after all, fails the test, so the table can only shrink. The
// rows are fixtures, probes and oracles that surviving tests are written
// against.
var keptUnreached = []struct{ name, reason string }{
	// Kept on purpose.
	{"aggregate.KernelBlocked", "pinned by bench/replica.go's Config literal until ROADMAP item 4(b) retires the replica"},
	{"yelt.Read", "FuzzRead's target and the whole-table decode of the yelt codec tests; keeps NewReader with it"},
	{"rng.New", "the seed-only stream every package's tests draw fixtures from"},
	{"rng.(*Stream).Pareto", "loss fixture of TestGoldenSummaryDigest, TestGoldenDFADigest and the metrics, dfa and warehouse tests; body pinned with the goldens"},
	{"rng.(*Stream).Exponential", "loss fixture of TestGoldenDFADigest's custom source; body pinned with the golden"},
	{"synth.Small", "the scenario of the integration tests and of internal/aggregate's and internal/lossindex's tests"},
	{"layers.YearState", "the naive reinstatement oracle of internal/layers' and internal/aggregate's tests and of FuzzYearState"},
	{"layers.Layer.NewYearState", "constructor of that oracle"},
	{"diskstore.(*Store).RemoveAt", "fault fixture: lost replica, or lost partition on an unreplicated store, in the diskstore, yelt, core and integration tests"},
	{"diskstore.(*Store).CorruptAt", "fault fixture: bit rot in one replica, or in the partition of an unreplicated store"},

	// Probes and references surviving tests assert through.
	{"faultinject.(*Plan).Injected", "the injected-fault count the fault tests of aggregate, mapreduce, yelt and faultinject assert on"},
	{"lossindex.(*Index).Entries", "per-row reference of TestFlattenColumnsMatchEntries and aggregate's legacyVectors"},
	{"lossindex.(*Index).EntriesFor", "per-event reference of the lossindex tests and aggregate's naiveReinstatements oracle"},
	{"lossindex.(*Index).EventAt", "TestRowTableShape reads the row table through it"},
	{"lossindex.(*Flat).NumEntries", "TestFlattenColumnsMatchEntries compares it with the index"},
	{"gpusim.(*BlockCtx).StoreShared", "probe of TestSharedMemoryIsolationBetweenBlocks"},
	{"vulnerability.Curve.MDR", "the damage curve the vulnerability tests check the prepared moments against"},
	{"vulnerability.(*Matrix).Curve", "same tests look a class's curve up through it"},
	{"vulnerability.(*Matrix).MeanDamage", "same tests: fragility ordering and monotonicity"},
	{"synth.(*Scenario).YELTGenerator", "the streaming trial source of internal/aggregate's streaming, flat and MapReduce equivalence suites"},
	{"yelt.(*Table).Slice", "the reference view every reader, disk-source, slice-property and fuzz test compares a decoded trial range against"},
	{"yelt.(*DiskSource).FailoverLog", "the replica tests assert which shard failed over through it"},
	{"warehouse.(*Cube).Keys", "requireCubesIdentical and core's cubesBitIdentical walk two cubes through it"},
	{"metrics.PML", "reference of TestGoldenSummaryDigest, TestViewMatchesNaiveOracle and TestNewViewSorted"},
	{"metrics.(*EPCurve).Trials", "read by the golden digest and the naive oracle"},
	{"hazard.Model.IntensityAt", "the per-pair reference of TestFootprintMatchesPointwise and of catmodel's naiveRun and naiveEstimate oracles"},
	{"catalog.(*Catalog).Lookup", "TestLookup, and the probe of TestNewCatalogIndexes and TestPostEventConsistentWithELT"},
}

func TestNoUnreachedExports(t *testing.T) {
	s, err := loadReachScan()
	if err != nil {
		t.Fatal(err)
	}
	live := s.walk()

	kept := map[types.Object]bool{}
	for _, row := range keptUnreached {
		obj := s.named[row.name]
		switch {
		case row.reason == "":
			t.Errorf("allowlist row %s has no reason", row.name)
		case obj == nil:
			t.Errorf("stale allowlist row %s: no such identifier under internal/ or risk/", row.name)
		case live[obj]:
			t.Errorf("stale allowlist row %s: a program reaches it now, delete the row", row.name)
		case kept[obj]:
			t.Errorf("allowlist row %s appears twice", row.name)
		default:
			kept[obj] = true
		}
	}

	// What a kept row uses lives with it; a method of an unreached type is
	// reported through its type.
	live = s.walk(slices.Collect(maps.Keys(kept))...)
	for _, d := range s.decls {
		if live[d.obj] || !d.guarded {
			continue
		}
		if recv := receiverType(d.obj); recv != nil && (kept[recv] || !live[recv]) {
			continue
		}
		t.Errorf("%s %s: neither a main package nor a kept row reaches it through non-test code", objName(d.obj), s.pos(d.obj))
	}

	for _, p := range s.pkgs {
		if strings.Contains(p.ImportPath, "/internal/") && !s.imported[p.ImportPath] {
			t.Errorf("%s: no non-test file imports this package", p.ImportPath)
		}
	}
}

// keptUnsettable is the only place an option nothing can set may live
// on: one row per exported struct field under internal/ or risk/ that
// some non-test file reads and no non-test file in the module writes,
// each with the reason it stays. A row whose field is gone, is no longer
// read, or has gained a writer fails the test, so the table can only
// shrink.
var keptUnsettable = []struct{ name, reason string }{
	// Pinned by the benchmark or by a golden.
	{"core.Config.Kernel", "bench/replica.go copies it into aggregate.Config; goes with that file (ROADMAP item 3a)"},
	{"core.Config.TrialBlock", "same copy in bench/replica.go; becomes DefaultTrialBlock with it (ROADMAP item 3a)"},
	{"core.Config.Sources", "bench/replica.go reads it for stage 3; nil everywhere, so StandardSources always runs"},
	{"dfa.Config.Corr", "TestGoldenDFADigest's tied/corr row pins the supplied-matrix path, TestRunRejectsHostileInputs its refusals"},

	// Parameters the equivalence and oracle suites vary.
	{"aggregate.MapReduce.SplitTrials", "TestMapReduceEquivalenceMatrix, TestFaultEquivalenceMatrix and the goldens cut splits that do not divide the trial count"},
	{"aggregate.MapReduce.MaxAttempts", "the fault tests give retries room (5) or too little (TestFaultUnrecoverableFailsLoudly)"},
	{"aggregate.Chunked.TrialsPerBlock", "TestChunkedOversizedBlockFallback forces one giant block; BenchmarkDeviceTrialsPerBlock sweeps it"},
	{"catmodel.Engine.Hazard", "TestRunMatchesNaiveOracle and TestPostEventMatchesNaiveOracle vary MaxRangeFactor through it"},
	{"catmodel.Engine.MinMeanLoss", "TestMinMeanLossTruncates and the oracle's truncated engine"},
	{"catmodel.Engine.TermsFor", "TestCustomTermsReduceLoss, TestPostEventCustomTerms and the oracle's custom-terms engine"},
	{"hazard.Model.MaxRangeFactor", "the footprint bound TestRunMatchesNaiveOracle and TestPostEventMatchesNaiveOracle vary"},
}

// TestNoUnsettableOptions fails for every exported struct field under
// internal/ or risk/ that a non-test file reads and none writes: the
// code behind such a field runs with one value for every program, so
// the field is either a constant or dead. A write is a composite-literal
// key (or a positional literal of the struct), an assignment or ++/--
// through the field, or taking its address — except through a function's
// own copy: a field reached from a struct-typed, non-pointer receiver or
// parameter with no pointer in between, as in a defaulting method's
// c.X = default, which no caller sees. Fields with a json tag (a
// decoder writes them) and fields of sync/atomic types (written through
// methods) are exempt; embedded fields are not options and are skipped.
func TestNoUnsettableOptions(t *testing.T) {
	s, err := loadReachScan()
	if err != nil {
		t.Fatal(err)
	}
	fs := s.fields
	unsettable := func(f *types.Var) bool { return fs.read[f] && !fs.written[f] }

	kept := map[*types.Var]bool{}
	for _, row := range keptUnsettable {
		f := fs.named[row.name]
		switch {
		case row.reason == "":
			t.Errorf("allowlist row %s has no reason", row.name)
		case f == nil:
			t.Errorf("stale allowlist row %s: no such exported field under internal/ or risk/", row.name)
		case !unsettable(f):
			t.Errorf("stale allowlist row %s: a non-test file writes it now, or none reads it; delete the row", row.name)
		case kept[f]:
			t.Errorf("allowlist row %s appears twice", row.name)
		default:
			kept[f] = true
		}
	}
	for _, name := range slices.Sorted(maps.Keys(fs.named)) {
		if f := fs.named[name]; unsettable(f) && !kept[f] {
			t.Errorf("%s %s: read by non-test code, but no non-test file in the module can set it", name, s.pos(f))
		}
	}
}

// fieldScan sorts every mention of a struct field in the module's
// non-test files into writes and reads.
type fieldScan struct {
	named   map[string]*types.Var // exported, non-exempt fields under internal/ or risk/, keyed pkg.Type.Field
	written map[*types.Var]bool
	read    map[*types.Var]bool
}

func (fs *fieldScan) addPackage(p *listedPkg, files []*ast.File, info *types.Info) {
	guarded := strings.Contains(p.ImportPath, "/internal/") || strings.HasSuffix(p.ImportPath, "/risk")
	writes := map[*ast.Ident]bool{}
	// copies holds the struct-typed, non-pointer receivers and
	// parameters: each is its function's own copy of the caller's value.
	copies := map[types.Object]bool{}
	// inCopy reports whether e is one of copies, or a field of one
	// selected without going through a pointer.
	var inCopy func(e ast.Expr) bool
	inCopy = func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.Ident:
			return copies[info.Uses[e]]
		case *ast.ParenExpr:
			return inCopy(e.X)
		case *ast.SelectorExpr:
			sel := info.Selections[e]
			return sel != nil && sel.Kind() == types.FieldVal && !sel.Indirect() && inCopy(e.X)
		}
		return false
	}
	// spine marks the fields an assignment goes through: x.A.B[i] = v
	// sets B and changes A. A write into a function's own copy sets
	// nothing.
	var spine func(e ast.Expr)
	spine = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.SelectorExpr:
			if inCopy(e) {
				return
			}
			writes[e.Sel] = true
			spine(e.X)
		case *ast.IndexExpr:
			spine(e.X)
		case *ast.SliceExpr:
			spine(e.X)
		case *ast.StarExpr:
			spine(e.X)
		case *ast.ParenExpr:
			spine(e.X)
		}
	}
	addCopies := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					if _, ok := obj.Type().Underlying().(*types.Struct); ok {
						copies[obj] = true
					}
				}
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				addCopies(n.Recv)
				addCopies(n.Type.Params)
			case *ast.FuncLit:
				addCopies(n.Type.Params)
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok && guarded {
					fs.declare(p.Name+"."+n.Name.Name, st, info)
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					spine(lhs)
				}
			case *ast.IncDecStmt:
				spine(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					spine(n.X)
				}
			case *ast.CompositeLit:
				t := info.Types[n].Type
				if ptr, ok := t.Underlying().(*types.Pointer); ok {
					t = ptr.Elem() // an elided &T{…} inside a []*T literal
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						writes[kv.Key.(*ast.Ident)] = true
					} else {
						fs.written[st.Field(i).Origin()] = true
					}
				}
			}
			return true
		})
	}
	for id, obj := range info.Uses {
		if f, ok := obj.(*types.Var); ok && f.IsField() {
			if writes[id] {
				fs.written[f.Origin()] = true
			} else {
				fs.read[f.Origin()] = true
			}
		}
	}
}

// declare registers the named, exported, non-exempt fields of one struct
// type declaration.
func (fs *fieldScan) declare(typeName string, st *ast.StructType, info *types.Info) {
	for _, field := range st.Fields.List {
		if field.Tag != nil {
			tag, _ := strconv.Unquote(field.Tag.Value)
			if _, ok := reflect.StructTag(tag).Lookup("json"); ok {
				continue
			}
		}
		for _, name := range field.Names {
			f := info.Defs[name].(*types.Var)
			if !f.Exported() || isAtomic(f.Type()) {
				continue
			}
			fs.named[typeName+"."+f.Name()] = f
		}
	}
}

func isAtomic(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync/atomic"
}

// listedPkg is the part of `go list -json` the scan reads.
type listedPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Imports    []string
}

// reachDecl is one node of the graph: a package-level object or a
// method, with the objects its declaration mentions.
type reachDecl struct {
	obj     types.Object
	uses    []types.Object
	root    bool // main.main, init, and `var _ =` declarations
	guarded bool // under internal/ or risk/: reported when unreached
}

type reachScan struct {
	fset     *token.FileSet
	root     string
	pkgs     []*listedPkg
	imported map[string]bool
	decls    []*reachDecl
	byObj    map[types.Object]*reachDecl
	named    map[string]types.Object // under internal/ or risk/, keyed by objName
	ifaces   []*types.Interface
	fields   fieldScan
}

// loadReachScan type-checks the module once for both guards.
var loadReachScan = sync.OnceValues(func() (*reachScan, error) {
	out, err := exec.Command("go", "list", "-json=ImportPath,Name,Dir,GoFiles,Imports", "./...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	s := &reachScan{
		fset:     token.NewFileSet(),
		imported: map[string]bool{},
		byObj:    map[types.Object]*reachDecl{},
		named:    map[string]types.Object{},
		fields: fieldScan{
			named:   map[string]*types.Var{},
			written: map[*types.Var]bool{},
			read:    map[*types.Var]bool{},
		},
	}
	if s.root, err = filepath.Abs("."); err != nil {
		return nil, err
	}
	byPath := map[string]*listedPkg{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listedPkg)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		s.pkgs = append(s.pkgs, p)
		byPath[p.ImportPath] = p
		for _, imp := range p.Imports {
			s.imported[imp] = true
		}
	}

	// The source importer type-checks the standard library from GOROOT;
	// with cgo on it would shell out to the C toolchain for package net.
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	defer func() { build.Default.CgoEnabled = cgo }()

	imp := &repoImporter{
		s:      s,
		byPath: byPath,
		std:    importer.ForCompiler(s.fset, "source", nil),
		done:   map[string]*types.Package{},
	}
	for _, p := range s.pkgs {
		if _, err := imp.Import(p.ImportPath); err != nil {
			return nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
		}
	}
	// Interfaces the standard library declares count too: a WriteTo is
	// reached through io.WriterTo, a String through fmt.Stringer.
	seen := map[*types.Package]bool{}
	for _, tp := range imp.done {
		s.collectNamedIfaces(tp, seen)
	}
	s.ifaces = append(s.ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	return s, nil
})

// repoImporter hands the checker this module's packages as the scan
// itself checked them, so an object has one identity across packages,
// and everything else from source.
type repoImporter struct {
	s      *reachScan
	byPath map[string]*listedPkg
	std    types.Importer
	done   map[string]*types.Package
}

func (im *repoImporter) Import(path string) (*types.Package, error) {
	if tp, ok := im.done[path]; ok {
		return tp, nil
	}
	p, ok := im.byPath[path]
	if !ok {
		return im.std.Import(path)
	}
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(im.s.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
		// Selections tells a field of a receiver's own copy from one
		// reached through a pointer (see fieldScan.addPackage).
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	tp, err := (&types.Config{Importer: im}).Check(path, im.s.fset, files, info)
	if err != nil {
		return nil, err
	}
	im.done[path] = tp
	im.s.addPackage(p, tp, files, info)
	im.s.fields.addPackage(p, files, info)
	return tp, nil
}

func (s *reachScan) collectNamedIfaces(tp *types.Package, seen map[*types.Package]bool) {
	if tp == nil || seen[tp] {
		return
	}
	seen[tp] = true
	for _, name := range tp.Scope().Names() {
		if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				s.ifaces = append(s.ifaces, it)
			}
		}
	}
	for _, dep := range tp.Imports() {
		s.collectNamedIfaces(dep, seen)
	}
}

// addPackage turns one checked package into graph nodes.
func (s *reachScan) addPackage(p *listedPkg, tp *types.Package, files []*ast.File, info *types.Info) {
	guarded := strings.Contains(p.ImportPath, "/internal/") || strings.HasSuffix(p.ImportPath, "/risk")
	add := func(obj types.Object, node ast.Node, root bool) {
		d := &reachDecl{obj: obj, root: root, guarded: guarded}
		seen := map[types.Object]bool{}
		ast.Inspect(node, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if u := declared(info.Uses[id]); u != nil && u != obj && !seen[u] {
				seen[u] = true
				d.uses = append(d.uses, u)
			}
			return true
		})
		s.decls = append(s.decls, d)
		s.byObj[obj] = d
		if guarded {
			s.named[objName(obj)] = obj
		}
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				fn := info.Defs[decl.Name].(*types.Func)
				isRoot := decl.Recv == nil && (fn.Name() == "init" || fn.Name() == "main" && p.Name == "main")
				add(fn, decl, isRoot)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(info.Defs[spec.Name], spec, false)
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							if name.Name == "_" {
								// No object to hang it on: `var _ I = T{}`
								// keeps what it mentions alive.
								add(types.NewVar(name.Pos(), tp, "_", nil), spec, true)
								continue
							}
							add(info.Defs[name], spec, false)
						}
					}
				}
			}
		}
	}
	// Interface literals (in an assertion, a parameter, a field) name
	// methods as well as declared interface types do.
	for _, tv := range info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() && it.NumMethods() > 0 {
			s.ifaces = append(s.ifaces, it)
		}
	}
}

// declared maps a used object to the graph node that owns it: itself
// for a package-level object or a method, nothing for locals, fields,
// builtins and anything outside this module.
func declared(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.TypeName, *types.Const:
		if o.Pkg() != nil && o.Parent() == o.Pkg().Scope() {
			return o
		}
	case *types.Var:
		if o = o.Origin(); !o.IsField() && o.Pkg() != nil && o.Parent() == o.Pkg().Scope() {
			return o
		}
	}
	return nil
}

// receiverType is the named type a method is declared on, nil for
// anything that is not a method.
func receiverType(o types.Object) *types.TypeName {
	fn, ok := o.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	if n, ok := rt.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// walk returns what the main packages, and any extra roots, reach. A
// method is reached when something reached selects it, or when its
// receiver type is reached and needs it to satisfy an interface.
func (s *reachScan) walk(roots ...types.Object) map[types.Object]bool {
	live := map[types.Object]bool{}
	var queue []types.Object
	mark := func(o types.Object) {
		if !live[o] && s.byObj[o] != nil {
			live[o] = true
			queue = append(queue, o)
		}
	}
	for _, d := range s.decls {
		if d.root {
			mark(d.obj)
		}
	}
	for _, o := range roots {
		mark(o)
	}
	for len(queue) > 0 {
		o := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if tn, ok := o.(*types.TypeName); ok {
			for _, m := range s.interfaceMethods(tn) {
				mark(m)
			}
		}
		for _, u := range s.byObj[o].uses {
			mark(u)
		}
	}
	return live
}

// interfaceMethods lists the methods through which tn (or a pointer to
// it) satisfies some interface of the program or the standard library,
// promoted ones included.
func (s *reachScan) interfaceMethods(tn *types.TypeName) []*types.Func {
	if _, isIface := tn.Type().Underlying().(*types.Interface); isIface {
		return nil
	}
	ptr := types.NewPointer(tn.Type())
	mset := types.NewMethodSet(ptr)
	var out []*types.Func
	for _, it := range s.ifaces {
		if !types.Implements(ptr, it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
				out = append(out, sel.Obj().(*types.Func).Origin())
			}
		}
	}
	return out
}

// objName prints pkg.Name, pkg.T.Method or pkg.(*T).Method.
func objName(o types.Object) string {
	pkg := o.Pkg().Name()
	recv := receiverType(o)
	if recv == nil {
		return pkg + "." + o.Name()
	}
	if _, ptr := o.Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
		return fmt.Sprintf("%s.(*%s).%s", pkg, recv.Name(), o.Name())
	}
	return fmt.Sprintf("%s.%s.%s", pkg, recv.Name(), o.Name())
}

func (s *reachScan) pos(o types.Object) string {
	p := s.fset.Position(o.Pos())
	if rel, err := filepath.Rel(s.root, p.Filename); err == nil {
		p.Filename = rel
	}
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}
