package stsmatch_test

// End-to-end tests of the command-line tools: build the binaries once
// and drive the documented pipeline (motiongen -> segmenter ->
// predictd -> clusterpat) on a temporary directory.

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

var (
	toolsOnce sync.Once
	toolsDir  string
	toolsErr  error
)

// buildTools compiles the CLI binaries once per test binary.
func buildTools(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("tool builds are slow for -short")
	}
	toolsOnce.Do(func() {
		dir, err := os.MkdirTemp("", "stsmatch-tools-")
		if err != nil {
			toolsErr = err
			return
		}
		toolsDir = dir
		for _, tool := range []string{"motiongen", "segmenter", "predictd", "clusterpat"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./cmd/"+tool)
			if out, err := cmd.CombinedOutput(); err != nil {
				toolsErr = err
				t.Logf("building %s: %s", tool, out)
				return
			}
		}
	})
	if toolsErr != nil {
		t.Fatalf("building tools: %v", toolsErr)
	}
	return toolsDir
}

func runTool(t *testing.T, dir, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(dir, name), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v failed: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestCLIPipeline(t *testing.T) {
	bin := buildTools(t)
	work := t.TempDir()
	dbPath := filepath.Join(work, "cohort.json")
	binPath := filepath.Join(work, "cohort.bin")
	rawDir := filepath.Join(work, "raw")

	// 1. Generate a segmented cohort in both formats.
	out := runTool(t, bin, "motiongen",
		"-patients", "4", "-sessions", "2", "-dur", "45", "-o", dbPath)
	if !strings.Contains(out, "4 patients") {
		t.Errorf("motiongen output: %q", out)
	}
	runTool(t, bin, "motiongen",
		"-patients", "4", "-sessions", "2", "-dur", "45", "-o", binPath)
	ji, err := os.Stat(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	bi, err := os.Stat(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if bi.Size() >= ji.Size() {
		t.Errorf("binary format (%d B) not smaller than JSON (%d B)", bi.Size(), ji.Size())
	}

	// 2. Raw export + streaming segmentation.
	runTool(t, bin, "motiongen", "-raw", "-dir", rawDir, "-patients", "2", "-sessions", "1", "-dur", "30")
	if _, err := os.Stat(filepath.Join(rawDir, "manifest.csv")); err != nil {
		t.Fatalf("manifest missing: %v", err)
	}
	plrOut := filepath.Join(work, "p01.plr.csv")
	segOut := runTool(t, bin, "segmenter",
		"-in", filepath.Join(rawDir, "P01-S01.csv"), "-out", plrOut)
	if !strings.Contains(segOut, "compression") {
		t.Errorf("segmenter output: %q", segOut)
	}
	plrData, err := os.ReadFile(plrOut)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(plrData), "\n"); lines < 5 {
		t.Errorf("PLR CSV has only %d lines", lines)
	}

	// 3. Online prediction replay on both database formats.
	for _, db := range []string{dbPath, binPath} {
		predOut := runTool(t, bin, "predictd", "-db", db, "-delta", "200ms", "-queries", "4")
		if !strings.Contains(predOut, "mean") || !strings.Contains(predOut, "coverage") {
			t.Errorf("predictd output for %s: %q", db, predOut)
		}
	}
	// Adaptive mode.
	adOut := runTool(t, bin, "predictd", "-db", dbPath, "-adapt", "0.8", "-queries", "4")
	if !strings.Contains(adOut, "epsilon settled") {
		t.Errorf("adaptive output: %q", adOut)
	}

	// 4. Offline clustering report.
	clOut := runTool(t, bin, "clusterpat", "-db", dbPath, "-stride", "6", "-dendrogram")
	for _, want := range []string{"k-medoids", "breathing class", "hierarchical"} {
		if !strings.Contains(clOut, want) {
			t.Errorf("clusterpat output missing %q:\n%s", want, clOut)
		}
	}
}

func TestCLIErrorHandling(t *testing.T) {
	bin := buildTools(t)
	// predictd on a missing database must fail with a nonzero exit.
	cmd := exec.Command(filepath.Join(bin, "predictd"), "-db", "/nonexistent.json")
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Errorf("missing database accepted: %s", out)
	}
	// segmenter on malformed input must fail.
	bad := filepath.Join(t.TempDir(), "bad.csv")
	if err := os.WriteFile(bad, []byte("not,numbers,at,all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd = exec.Command(filepath.Join(bin, "segmenter"), "-in", bad)
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Errorf("malformed CSV accepted: %s", out)
	}
	// predictd with a NaN threshold must refuse it, not evaluate a
	// threshold nothing can be within.
	dbPath := filepath.Join(t.TempDir(), "cohort.json")
	runTool(t, bin, "motiongen", "-patients", "2", "-sessions", "1", "-dur", "30", "-o", dbPath)
	cmd = exec.Command(filepath.Join(bin, "predictd"), "-db", dbPath, "-eps", "NaN")
	if out, err := cmd.CombinedOutput(); err == nil || !strings.Contains(string(out), "DistThreshold") {
		t.Errorf("predictd -eps NaN: exit %v, output %s", err, out)
	}
}

// TestDaemonsDoNotLinkSigindex: the window-signature index is a library
// the benchmark module uses; no daemon, and not the matcher, links it.
func TestDaemonsDoNotLinkSigindex(t *testing.T) {
	if testing.Short() {
		t.Skip("go list is slow for -short")
	}
	pkgs := []string{"./cmd/streamd", "./cmd/gateway", "./cmd/predictd", "./internal/core"}
	for _, pkg := range pkgs {
		out, err := exec.Command("go", "list", "-deps", pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("go list -deps %s: %v\n%s", pkg, err, out)
		}
		for _, dep := range strings.Fields(string(out)) {
			if dep == "stsmatch/internal/sigindex" {
				t.Errorf("%s links %s", pkg, dep)
			}
		}
	}
}

// TestDaemonFlagsDocumented: README's "Daemon flags" table lists, for
// each daemon, exactly the flags its main.go defines — one row per
// flag.<Kind>("name", ...) call.
func TestDaemonFlagsDocumented(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("(?m)^\\| `(streamd|gateway)` \\| `-([a-z-]+)` \\|")
	documented := map[string][]string{}
	for _, m := range row.FindAllStringSubmatch(string(readme), -1) {
		documented[m[1]] = append(documented[m[1]], m[2])
	}
	for _, daemon := range []string{"streamd", "gateway"} {
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("cmd", daemon, "main.go"), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		var defined []string
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			if name, ok := call.Args[0].(*ast.BasicLit); ok && name.Kind == token.STRING {
				defined = append(defined, strings.Trim(name.Value, `"`))
			}
			return true
		})
		if len(defined) == 0 {
			t.Fatalf("found no flag in cmd/%s/main.go", daemon)
		}
		slices.Sort(defined)
		got := slices.Clone(documented[daemon])
		slices.Sort(got)
		if !slices.Equal(got, defined) {
			t.Errorf("README lists %s flags %v, cmd/%s/main.go defines %v", daemon, got, daemon, defined)
		}
	}
}

// TestMetricsCatalogued: README's metric catalogue is the one list of
// the series the program serves — one row per series, and a series per
// row. A series is registered by a Registry.Counter, Gauge, GaugeFunc,
// Histogram, CounterVec, GaugeVec or HistogramVec call in non-test code
// whose name is a "stsmatch_" literal, or whose name is a parameter plus
// a literal suffix (obs.NewHTTPMetrics), once per literal prefix a call
// of that function passes; a registration named any other way fails.
// internal/sigindex is exempt: no daemon links it, and its series leave
// with it.
func TestMetricsCatalogued(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("(?m)^\\| `([a-z_]+)(?:\\{[a-z,]+\\})?` \\| (?:counter|gauge|histogram) \\|")
	documented := map[string]bool{}
	for _, m := range row.FindAllStringSubmatch(string(readme), -1) {
		name := "stsmatch_" + m[1]
		if documented[name] {
			t.Errorf("README's metric catalogue has two rows for %s", name)
		}
		documented[name] = true
	}

	registers := map[string]bool{"Counter": true, "Gauge": true, "GaugeFunc": true, "Histogram": true,
		"CounterVec": true, "GaugeVec": true, "HistogramVec": true}
	registered := map[string]string{} // series -> where
	suffixes := map[string][]string{} // function -> suffixes it appends to a parameter
	type prefixCall struct{ fn, prefix, pos string }
	var prefixCalls []prefixCall
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || path == filepath.Join("internal", "sigindex") || path != "." && strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, dcl := range f.Decls {
			fn := ""
			if fd, ok := dcl.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
			}
			ast.Inspect(dcl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				var callee string
				switch fun := call.Fun.(type) {
				case *ast.SelectorExpr:
					callee = fun.Sel.Name
				case *ast.Ident:
					callee = fun.Name
				}
				pos := fset.Position(call.Pos()).String()
				for _, arg := range call.Args {
					if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING && strings.HasPrefix(lit.Value, `"stsmatch`) {
						prefixCalls = append(prefixCalls, prefixCall{callee, strings.Trim(lit.Value, `"`), pos})
					}
				}
				if !registers[callee] {
					return true
				}
				switch name := call.Args[0].(type) {
				case *ast.BasicLit:
					if v := strings.Trim(name.Value, `"`); name.Kind == token.STRING && strings.HasPrefix(v, "stsmatch_") {
						registered[v] = pos
					}
					return true
				case *ast.BinaryExpr:
					if lit, ok := name.Y.(*ast.BasicLit); ok && name.Op == token.ADD && lit.Kind == token.STRING {
						suffixes[fn] = append(suffixes[fn], strings.Trim(lit.Value, `"`))
						return true
					}
				}
				t.Errorf("%s: %s registers a series whose name this guard cannot read", pos, callee)
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range prefixCalls {
		for _, suffix := range suffixes[c.fn] {
			registered[c.prefix+suffix] = c.pos
		}
	}
	if len(registered) < 50 {
		t.Fatalf("found only %d registered series; is the walk rooted at the repository?", len(registered))
	}
	for name, pos := range registered {
		if !documented[name] {
			t.Errorf("%s: %s is registered but has no row in README's metric catalogue", pos, name)
		}
	}
	for name := range documented {
		if registered[name] == "" {
			t.Errorf("README's metric catalogue lists %s, which nothing registers", name)
		}
	}
}

// TestSeqOnlyAtTheAPIEdge guards the column store: the packages on the
// served paths read a stream through store.ScanView, and call
// (*store.Stream).Seq or Snapshot — which materialise the stream as a
// plr.Sequence and keep it — only at the sites listed here, each with
// why it may. A new call is a decision to re-materialise whatever
// streams reach it, to be made on this list.
func TestSeqOnlyAtTheAPIEdge(t *testing.T) {
	allowed := map[string]string{
		// The offline evaluation harness replays cut points of whole streams.
		"internal/core/evaluate.go: seq := st.Seq()": "evaluateStream",
	}
	call := regexp.MustCompile(`\.(Seq|Snapshot)\(\)`)
	for _, dir := range []string{"internal/core", "internal/subscribe", "internal/server"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("listing %s: %d files, %v", dir, len(files), err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(src), "\n") {
				code, _, _ := strings.Cut(line, "//")
				if call.MatchString(code) && allowed[filepath.ToSlash(file)+": "+strings.TrimSpace(code)] == "" {
					t.Errorf("%s:%d materialises a stream off the API edge: %s", file, i+1, strings.TrimSpace(line))
				}
			}
		}
	}
}

// TestCIRunNamesExist: every alternative of every -run pattern in the CI
// workflow names the start of some Test, Fuzz or Benchmark function of
// either module, so a step cannot go on passing while part of it
// matches nothing. Comment lines are skipped, ^ and $ anchors stripped,
// and '^$' runs no test.
func TestCIRunNamesExist(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var funcs []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs = append(funcs, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	run := regexp.MustCompile(`-run (?:'([^']*)'|(\S+))`)
	var patterns [][]string
	for _, line := range strings.Split(string(ci), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "#") {
			patterns = append(patterns, run.FindAllStringSubmatch(line, -1)...)
		}
	}
	if len(patterns) == 0 {
		t.Fatal("found no -run pattern in ci.yml")
	}
	for _, m := range patterns {
		for _, alt := range strings.Split(m[1]+m[2], "|") {
			alt = strings.TrimSuffix(strings.TrimPrefix(alt, "^"), "$")
			if alt == "" {
				continue
			}
			exists := slices.ContainsFunc(funcs, func(name string) bool {
				return strings.HasPrefix(name, alt) && (strings.HasPrefix(name, "Test") ||
					strings.HasPrefix(name, "Fuzz") || strings.HasPrefix(name, "Benchmark"))
			})
			if !exists {
				t.Errorf("ci.yml runs -run %q, and no test function starts with %q", m[1]+m[2], alt)
			}
		}
	}
}

// TestInternalExportsHaveCallers: every exported function and method
// declared under internal/ is used by some non-test code of either
// module (bench/ counts), so that nothing lives on for its tests alone.
// internal/testutil is exempt; an export kept for another reason is
// listed here with that reason, and an entry that excuses nothing fails
// too.
//
// A use is resolved by object (go/types over both modules), not by
// name: Ring.Remove is not reached by a call of LinReg.Remove. A method
// also counts as reached when an interface declared in either module
// names it (a call through the interface reaches whichever type is
// behind it), when its type implements a standard-library interface
// that declares it (fmt calls String, net/http calls ServeHTTP), or when
// its type is aliased by the public packages stsmatch, synth or
// gatingsim, whose methods are public API.
func TestInternalExportsHaveCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checking both modules is slow for -short")
	}
	allowed := map[string]string{
		// Reference oracles the optimised paths are held to.
		"shard.MergeMatches": "the sort-based merge the gateway's streaming merge is held to",
		"stats.Variance":     "the batch variance Welford is held to",
		"stats.Max":          "the batch maximum Welford is held to",
		// Shared test fixtures.
		"plr.Samples1D": "builds 1-D samples for the tests",
		// Test seams.
		"server.SetMigrationHook": "pauses a migration between phases for the failover tests",
		"subscribe.SetClock":      "drives the lease clock for the subscription tests",
		// Introspection the tests read state through.
		"server.Traces":    "the trace collector, read by the trace tests",
		"shard.Traces":     "the trace collector, read by the trace tests",
		"obs.Recent":       "the collector's recent ring, read by the trace tests",
		"obs.Slow":         "the collector's slow ring, read by the trace tests",
		"stats.MSE":        "the fit's residual, read by the regression tests",
		"shard.NumHealthy": "the pool's admitted set, read by the health tests",
		"shard.Owner":      "a key's primary, read by the ring tests",
		"shard.MovedKeys":  "the keys a ring change moves, read by the ring tests",
		// internal/sigindex leaves with bench/'s index layers; these are
		// its own test helpers.
		"sigindex.Covers":          "sigindex is retired with bench/'s index layers",
		"sigindex.Stats":           "sigindex is retired with bench/'s index layers",
		"sigindex.Dump":            "sigindex is retired with bench/'s index layers",
		"sigindex.DecodeSignature": "sigindex is retired with bench/'s index layers",
		"sigindex.Config":          "sigindex is retired with bench/'s index layers",
		"sigindex.Coverage":        "sigindex is retired with bench/'s index layers",
	}

	prog := loadModules(t)
	used := map[*types.Func]bool{}
	for _, obj := range prog.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}
	ifaces := map[string]bool{} // method names interfaces of either module declare
	for _, f := range prog.files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, name := range m.Names {
						ifaces[name.Name] = true
					}
				}
			}
			return true
		})
	}
	public := map[*types.Func]bool{} // methods of the types the public packages alias
	for _, obj := range prog.info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || !tn.IsAlias() || !slices.Contains([]string{"stsmatch", "stsmatch/synth", "stsmatch/gatingsim"}, tn.Pkg().Path()) {
			continue
		}
		if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
			for i := 0; i < named.NumMethods(); i++ {
				public[named.Method(i).Origin()] = true
			}
		}
	}
	var stdIfaces []*types.Interface
	for _, name := range []string{"error", "fmt.Stringer", "net/http.Handler", "net/http.ResponseWriter",
		"net/http.Flusher", "net/http.RoundTripper"} {
		stdIfaces = append(stdIfaces, prog.lookupInterface(t, name))
	}
	implementsStd := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		for _, it := range stdIfaces {
			if types.Implements(types.NewPointer(recv), it) {
				for i := 0; i < it.NumMethods(); i++ {
					if it.Method(i).Name() == fn.Name() {
						return true
					}
				}
			}
		}
		return false
	}

	n := 0
	excused := map[string]bool{}
	for _, f := range prog.files {
		if !strings.HasPrefix(f.dir, "internal/") || strings.HasPrefix(f.dir, "internal/testutil") {
			continue
		}
		for _, dcl := range f.ast.Decls {
			fd, ok := dcl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			n++
			fn := prog.info.Defs[fd.Name].(*types.Func)
			if used[fn] || fd.Recv != nil && (ifaces[fn.Name()] || public[fn] || implementsStd(fn)) {
				continue
			}
			key := f.ast.Name.Name + "." + fn.Name()
			if allowed[key] != "" {
				excused[key] = true
				continue
			}
			t.Errorf("%s: %s is exported from internal/ but no non-test code calls it", prog.fset.Position(fd.Pos()), fn.FullName())
		}
	}
	if n < 100 {
		t.Fatalf("found only %d exported internal functions; is the walk rooted at the repository?", n)
	}
	for key := range allowed {
		if !excused[key] {
			t.Errorf("allow-list entry %s excuses nothing: delete it", key)
		}
	}
}

// srcFile is one parsed non-test Go file of either module.
type srcFile struct {
	dir string // relative to the repository root
	ast *ast.File
}

// program is both modules' non-test code, parsed and type-checked from
// source, with one types.Info over all of it.
type program struct {
	fset  *token.FileSet
	files []srcFile
	info  *types.Info
	std   types.Importer
}

// loadModules parses the non-test files of both modules that the
// default build context selects (build tags and file-name suffixes, so
// a package with per-platform files is checked once) and type-checks
// them, resolving the standard library from source.
func loadModules(t *testing.T) *program {
	t.Helper()
	prog := &program{
		fset: token.NewFileSet(),
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	prog.std = importer.ForCompiler(prog.fset, "source", nil)
	byPath := map[string][]*ast.File{}
	for _, root := range []string{".", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != root && (path == "bench" || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
					return filepath.SkipDir
				}
				return nil
			}
			dir, name := filepath.Dir(path), filepath.Base(path)
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				return nil
			}
			if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
				return err
			}
			f, err := parser.ParseFile(prog.fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			dir = filepath.ToSlash(dir)
			pkgPath := "stsmatch"
			if dir != "." {
				pkgPath += "/" + dir
			}
			prog.files = append(prog.files, srcFile{dir: dir, ast: f})
			byPath[pkgPath] = append(byPath[pkgPath], f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	checked := map[string]*types.Package{}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		files, ok := byPath[path]
		if !ok {
			return prog.std.Import(path)
		}
		conf := types.Config{Importer: imp}
		p, err := conf.Check(path, prog.fset, files, prog.info)
		if err != nil {
			return nil, err
		}
		checked[path] = p
		return p, nil
	}
	for path := range byPath {
		if _, err := imp(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
	}
	return prog
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// lookupInterface resolves a standard-library interface by its
// qualified name ("error" for the predeclared one).
func (prog *program) lookupInterface(t *testing.T, qualified string) *types.Interface {
	t.Helper()
	scope := types.Universe
	name := qualified
	if i := strings.LastIndexByte(qualified, '.'); i >= 0 {
		pkg, err := prog.std.Import(qualified[:i])
		if err != nil {
			t.Fatal(err)
		}
		scope, name = pkg.Scope(), qualified[i+1:]
	}
	obj := scope.Lookup(name)
	if obj == nil {
		t.Fatalf("no %s", qualified)
	}
	return obj.Type().Underlying().(*types.Interface)
}
