package stsmatch_test

// End-to-end tests of the command-line tools: build the binaries once
// and drive the documented pipeline (motiongen -> segmenter ->
// predictd -> clusterpat) on a temporary directory.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
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
		// A live session's dynamic query is cut from its own stream's tail.
		"internal/server/server.go: seq := sess.stream.Seq()": "handlePredict, handlePLR",
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

// TestInternalExportsHaveCallers: every exported function and method
// declared under internal/ is referenced by some non-test code of either
// module (bench/ counts) other than its own declaration, so that nothing
// lives on for its tests alone. internal/testutil is exempt; an export
// kept for another reason is listed here with that reason, and an entry
// that excuses nothing fails too.
//
// A reference is a name, not a resolved object: a package-level function
// is referenced by its package-qualified name elsewhere, or by its bare
// name inside its own package; a method by any selector of its name, or
// by an interface that declares that name.
func TestInternalExportsHaveCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("parsing both modules is slow for -short")
	}
	allowed := map[string]string{
		// Reference oracles the optimised paths are held to.
		"core.OfflineDistance": "Definition 3's unpruned distance, the oracle of OfflineSearch",
		"shard.MergeMatches":   "the sort-based merge the gateway's streaming merge is held to",
		// Test seams.
		"server.SetMigrationHook": "pauses a migration between phases for the failover tests",
		"subscribe.SetClock":      "drives the lease clock for the subscription tests",
		// Introspection the tests read state through.
		"fsm.SamplesSeen":     "the segmenter's progress, read by the fsm tests",
		"fsm.SegmentsEmitted": "the segmenter's progress, read by the fsm tests",
		"server.Traces":       "the trace collector, read by the trace tests",
		"shard.Traces":        "the trace collector, read by the trace tests",
		"shard.NumHealthy":    "the pool's admitted set, read by the health tests",
		"shard.Owner":         "a key's primary, read by the ring tests",
		"shard.MovedKeys":     "the keys a ring change moves, read by the ring tests",
		// internal/sigindex leaves with bench/'s index layers; these are
		// its own test helpers.
		"sigindex.Covers":          "sigindex is retired with bench/'s index layers",
		"sigindex.Stats":           "sigindex is retired with bench/'s index layers",
		"sigindex.Dump":            "sigindex is retired with bench/'s index layers",
		"sigindex.DecodeSignature": "sigindex is retired with bench/'s index layers",
		// Test-only, each deleted together with its tests later.
		"baseline.PAA":          "PAA feature baseline; no experiment runs it",
		"baseline.PAADistance":  "PAA feature baseline; no experiment runs it",
		"baseline.DFT":          "DFT feature baseline; no experiment runs it",
		"baseline.DFTDistance":  "DFT feature baseline; no experiment runs it",
		"baseline.LastObserved": "Figure 1's no-prediction baseline; only its test calls it",
		"plr.Resample":          "turns a PLR back into samples for the tests",
		"plr.Samples1D":         "builds 1-D samples for the tests",
		"stats.NewHistogram":    "stats.Histogram has no caller",
		"stats.Total":           "stats.Histogram has no caller",
		"stats.Counts":          "stats.Histogram has no caller",
		"stats.BucketCenter":    "stats.Histogram has no caller",
		"stats.Sum":             "batch statistic with no caller",
		"stats.StdDev":          "batch statistic with no caller",
		"stats.Min":             "batch statistic with no caller",
		"stats.Max":             "batch statistic with no caller",
		"stats.Percentile":      "batch statistic with no caller",
	}

	type decl struct {
		dir, key string // key is "package.Name"
		method   bool
		pos      token.Position
	}
	var (
		decls     []decl
		bare      = map[string]map[string]bool{} // package dir -> identifiers used in it
		qualified = map[string]bool{}            // "package.Name" used through an import
		selectors = map[string]bool{}            // Name used as X.Name, any X
		ifaces    = map[string]bool{}            // method names interfaces declare
	)
	fset := token.NewFileSet()
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
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			dir := filepath.ToSlash(filepath.Dir(path))
			own := map[*ast.Ident]bool{}
			if strings.HasPrefix(dir, "internal/") && !strings.HasPrefix(dir, "internal/testutil") {
				for _, dcl := range f.Decls {
					if fn, ok := dcl.(*ast.FuncDecl); ok && fn.Name.IsExported() {
						own[fn.Name] = true
						decls = append(decls, decl{dir: dir, key: f.Name.Name + "." + fn.Name.Name,
							method: fn.Recv != nil, pos: fset.Position(fn.Pos())})
					}
				}
			}
			imports := map[string]string{} // local name -> package name, for internal imports
			for _, imp := range f.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				if !strings.HasPrefix(p, "stsmatch/internal/") {
					continue
				}
				name := p[strings.LastIndexByte(p, '/')+1:]
				if imp.Name != nil {
					imports[imp.Name.Name] = name
				} else {
					imports[name] = name
				}
			}
			if bare[dir] == nil {
				bare[dir] = map[string]bool{}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					selectors[n.Sel.Name] = true
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
						qualified[imports[x.Name]+"."+n.Sel.Name] = true
					}
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, name := range m.Names {
							ifaces[name.Name] = true
						}
					}
				case *ast.Ident:
					if !own[n] {
						bare[dir][n.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(decls) < 100 {
		t.Fatalf("found only %d exported internal functions; is the walk rooted at the repository?", len(decls))
	}
	excused := map[string]bool{}
	for _, d := range decls {
		name := d.key[strings.IndexByte(d.key, '.')+1:]
		if qualified[d.key] || !d.method && bare[d.dir][name] || d.method && (selectors[name] || ifaces[name]) {
			continue
		}
		if allowed[d.key] != "" {
			excused[d.key] = true
			continue
		}
		t.Errorf("%s: %s is exported from internal/ but no non-test code calls it", d.pos, d.key)
	}
	for key := range allowed {
		if !excused[key] {
			t.Errorf("allow-list entry %s excuses nothing: delete it", key)
		}
	}
}
