package stsmatch_test

// End-to-end tests of the command-line tools: build the binaries once
// and drive the documented pipeline (motiongen -> segmenter ->
// predictd -> clusterpat) on a temporary directory.

import (
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
