// Package internal holds no code of its own; its tests keep the
// library's shape honest. Every exported function, method and type under
// internal/ must be referenced from a non-test .go file somewhere in the
// module tree (the root package, cmd/, examples/, gencorpus/, benchmark/
// and internal/ itself), or sit on surfaceAllow with a one-line reason.
// The allowlist may only shrink: an entry whose name gained a caller, or
// names nothing, fails the test too. Likewise every go statement in
// non-test code under internal/ must sit in a function on goSites.
package internal

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceAllow names the exported declarations that may go without a
// non-test caller, keyed "pkg.Name" (functions and types) or
// "pkg.Type.Method" (methods), pkg being the directory under internal/.
// A bare "pkg" entry covers the whole package. Entries are removed, never
// added: new code gets a caller or is not exported.
var surfaceAllow = map[string]string{
	// The test-oracle package.
	"verify": "the test oracle: its checkers exist to be called from tests",

	// References and inverses that tests check production code against.
	"costmodel.TableIV":      "the paper's printed Table IV, which TestGeneratorMatchesTableIV checks the cost generator against",
	"nn.SoftmaxCrossEntropy": "single-device loss that the engine's distributed masked loss is tested against",
	"saint.MaskedAdjacency":  "single-address-space sampled operator that masked distributed training is tested against",
	"sparse.CSR.ToDense":     "dense form of a sparse matrix, the reference for tests on small inputs",
	"sparse.CSR.At":          "random access by (row, col) that tests check CSR construction and permutations with",
	"tensor.ConcatRows":      "inverse of RowSlice; tests reassemble row tiles with it",
	"tensor.ConcatCols":      "inverse of ColSlice; tests reassemble column tiles with it",
	"member.DecodeMsg":       "inverse of Msg.Encode, whose bytes price gossip; tests round-trip the wire format through it",
	"plan.ParseDAG":          "inverse of DAG.String; tests round-trip the DAG dump through it",
	"serve.ParseTrafficSpec": "inverse of TrafficSpec.String; tests pin the spec's canonical form through it",
	"fault.RandomSchedule":   "draws the fault schedules of the chaos suites in verify",

	// Methods that satisfy an interface the standard library calls.
	"comm.CollectiveError.Unwrap": "errors.Is and errors.As reach the wrapped cause through it",
	"comm.FaultError.Unwrap":      "errors.Is and errors.As reach the wrapped cause through it",

	// Held by ROADMAP item 13, which decides whether the halo exchange stays.
	"dist.HaloExchange": "ROADMAP item 13 decides its fate",

	// The documented degraded-window API (RESILIENCE.md), driven by tests
	// until a serving front end uses it.
	"serve.Session.ServeDegraded":   "documented degraded-window API",
	"serve.Session.StaleServed":     "documented degraded-window API",
	"serve.Session.DeferredQueries": "documented degraded-window API",
}

// goSites names the only functions under internal/ whose non-test code
// may contain a go statement, keyed like surfaceAllow, each with its
// reason. Everything else runs on its caller's goroutine: a new site
// needs a reason as strong as these, and an entry whose function no
// longer starts a goroutine fails the test.
var goSites = map[string]string{
	"comm.Fabric.Run":     "one goroutine per device: each rank runs its SPMD program on its own",
	"tensor.ParallelRows": "the row split: one kernel's rows in contiguous chunks across GOMAXPROCS",
	"verify.noDeadlock":   "the deadlock watchdog: the guarded function runs beside the timer that reports it stuck",
}

// module is the import path of the tree's root; benchmark/ is a module
// of its own whose path keeps this prefix, so one rule maps every
// directory to its import path.
const module = "gnnrdm"

type declKey struct {
	pkg  string // import path
	name string // Name, or Type.Method for methods
}

// surface is what the non-test files of the tree declare and reference.
// Without type checking, a method counts as used when a package that
// can hold a value of its type — its own, or one importing it directly
// or transitively — selects its name in a call, or as a method value
// where no struct field shares the name.
type surface struct {
	decls    map[declKey]token.Pos      // exported declarations under internal/
	refs     map[declKey]bool           // package-level names referenced
	called   map[string]map[string]bool // method name -> packages calling it
	selected map[string]map[string]bool // selector name -> packages using it uncalled
	fields   map[string]bool            // struct field names
	iface    map[string]bool            // interface method names
	imports  map[string]map[string]bool // package -> direct imports
	goStmts  map[string][]token.Pos     // enclosing function -> go statements, internal/ only
}

// walk parses every non-test .go file in the module tree into a surface.
func walk(t *testing.T) (*surface, *token.FileSet) {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	s := &surface{
		decls: map[declKey]token.Pos{}, refs: map[declKey]bool{},
		called: map[string]map[string]bool{}, selected: map[string]map[string]bool{},
		fields: map[string]bool{}, iface: map[string]bool{},
		imports: map[string]map[string]bool{}, goStmts: map[string][]token.Pos{},
	}
	err = filepath.WalkDir(root, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := de.Name()
		if de.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := module
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		s.file(f, pkg)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, fset
}

func TestExportedSurfaceHasCallers(t *testing.T) {
	s, fset := walk(t)
	prefix := module + "/internal/"
	var missing []string
	seen := map[string]bool{}
	for k, pos := range s.decls {
		short := strings.TrimPrefix(k.pkg, prefix) + "." + k.name
		pkgName, _, _ := strings.Cut(short, ".")
		if _, ok := surfaceAllow[pkgName]; ok {
			seen[pkgName] = true
			continue
		}
		if _, ok := surfaceAllow[short]; ok {
			seen[short] = true
			if s.used(k) {
				t.Errorf("%s is on surfaceAllow but has a non-test caller; delete its entry", short)
			}
			continue
		}
		if !s.used(k) {
			missing = append(missing, fset.Position(pos).String()+": "+short)
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s has no caller outside tests: delete it, or give it a caller", m)
	}
	for k := range surfaceAllow {
		if !seen[k] {
			t.Errorf("surfaceAllow entry %q names no exported declaration; delete it", k)
		}
	}
}

// TestGoStatementSites fails on a go statement outside goSites, so the
// library's concurrency stays the three sites that need it.
func TestGoStatementSites(t *testing.T) {
	s, fset := walk(t)
	var stray []string
	for fn, sites := range s.goStmts {
		if _, ok := goSites[fn]; ok {
			continue
		}
		for _, pos := range sites {
			stray = append(stray, fset.Position(pos).String()+": go statement in "+fn)
		}
	}
	sort.Strings(stray)
	for _, m := range stray {
		t.Errorf("%s: run it on the caller's goroutine, or give it a goSites entry", m)
	}
	for fn := range goSites {
		if len(s.goStmts[fn]) == 0 {
			t.Errorf("goSites entry %q names no function with a go statement; delete it", fn)
		}
	}
}

// used reports whether a declaration has a non-test reference.
func (s *surface) used(k declKey) bool {
	_, method, isMethod := strings.Cut(k.name, ".")
	if !isMethod {
		return s.refs[k]
	}
	if s.iface[method] {
		return true
	}
	users := []map[string]bool{s.called[method]}
	if !s.fields[method] {
		users = append(users, s.selected[method])
	}
	for _, u := range users {
		for p := range u {
			if s.reaches(p, k.pkg, map[string]bool{}) {
				return true
			}
		}
	}
	return false
}

// reaches reports whether package from is to or imports it, directly or
// transitively.
func (s *surface) reaches(from, to string, visited map[string]bool) bool {
	if from == to {
		return true
	}
	if visited[from] {
		return false
	}
	visited[from] = true
	for im := range s.imports[from] {
		if s.reaches(im, to, visited) {
			return true
		}
	}
	return false
}

// file records f's exported declarations (under internal/ only) and
// every name f references.
func (s *surface) file(f *ast.File, pkg string) {
	internal := strings.HasPrefix(pkg, module+"/internal/")
	skip := map[*ast.Ident]bool{} // declaring identifiers and selected names
	for _, d := range f.Decls {
		if internal {
			s.recordGo(d, strings.TrimPrefix(pkg, module+"/internal/"))
		}
		switch d := d.(type) {
		case *ast.FuncDecl:
			skip[d.Name] = true
			if !internal || !d.Name.IsExported() {
				continue
			}
			s.decls[declKey{pkg, funcName(d)}] = d.Name.Pos()
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok {
					skip[ts.Name] = true
					if internal && ts.Name.IsExported() {
						s.decls[declKey{pkg, ts.Name.Name}] = ts.Name.Pos()
					}
				}
			}
		}
	}

	names := map[string]string{} // local import name -> import path
	if s.imports[pkg] == nil {
		s.imports[pkg] = map[string]bool{}
	}
	for _, im := range f.Imports {
		path, _ := strconv.Unquote(im.Path.Value)
		local := path[strings.LastIndex(path, "/")+1:]
		if im.Name != nil {
			local = im.Name.Name
		}
		names[local] = path
		s.imports[pkg][path] = true
	}

	calls := map[*ast.SelectorExpr]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				calls[sel] = true
			}
		case *ast.StructType:
			for _, fl := range n.Fields.List {
				for _, name := range fl.Names {
					s.fields[name.Name] = true
					skip[name] = true
				}
			}
		case *ast.InterfaceType:
			for _, m := range n.Methods.List {
				for _, name := range m.Names {
					s.iface[name.Name] = true
					skip[name] = true
				}
			}
		case *ast.SelectorExpr:
			skip[n.Sel] = true
			if x, ok := n.X.(*ast.Ident); ok {
				if path, ok := names[x.Name]; ok {
					s.refs[declKey{path, n.Sel.Name}] = true
					return true
				}
			}
			if calls[n] {
				add(s.called, n.Sel.Name, pkg)
			} else {
				add(s.selected, n.Sel.Name, pkg)
			}
		case *ast.Ident:
			if !skip[n] {
				s.refs[declKey{pkg, n.Name}] = true
			}
		}
		return true
	})
}

// recordGo notes every go statement in d under its enclosing function,
// "pkg.Func" or "pkg.Type.Method" (package-level variables count as
// "pkg.var").
func (s *surface) recordGo(d ast.Decl, pkg string) {
	fn := pkg + ".var"
	if fd, ok := d.(*ast.FuncDecl); ok {
		fn = pkg + "." + funcName(fd)
	}
	ast.Inspect(d, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			s.goStmts[fn] = append(s.goStmts[fn], g.Pos())
		}
		return true
	})
}

// funcName is a function declaration's key: Name, or Type.Method.
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil {
		return d.Name.Name
	}
	return recvType(d.Recv.List[0].Type) + "." + d.Name.Name
}

func add(m map[string]map[string]bool, name, pkg string) {
	if m[name] == nil {
		m[name] = map[string]bool{}
	}
	m[name][pkg] = true
}

// recvType is the base type name of a method receiver: T, *T, T[P] or *T[P].
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
