package experiments

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"stsmatch/internal/core"
)

// pinnedTables is the FNV-64a of every deterministic experiment's
// rendered output at quick scale, as `cmd/experiments -exp NAME -scale
// quick` prints it. efficiency and dtw-cost are absent (every cell is
// wall-clock); fig8a's comment line (two ms/query figures) and Figure
// 6c's baseline comment (pinned as text below) are left out of the sums. A refactor of the replay or the runner must leave all of them as
// they are; re-pin only after showing which figure moved and why.
var pinnedTables = map[string]string{
	"ablate-anchor":        "ddf0307699dde708",
	"ablate-segmenter":     "dcda5b69876983fb",
	"ablate-state-order":   "c14660ca64bfd22a",
	"dims3":                "e275c7df82599678",
	"ext-predictors":       "4cdbf4c85fcd2166",
	"ext-segment-forecast": "c44027cf6e1f5544",
	"fig6a":                "0727ca7b26ae4916",
	"fig6b":                "0727ca7b26ae4916",
	"fig6c":                "0727ca7b26ae4916",
	"fig7a":                "7fb7ddb1f2e8f6fc",
	"fig7b":                "947a5bd6bfffc2b2",
	"fig8a":                "c936f3c4efc3a023",
	"fig8b":                "7f2082bbc9cdef56",
	"fig8c":                "14cd9add4ab3623a",
	"fig9":                 "47ac306f3922b538",
	"plr-fidelity":         "a796e8d8259cfb12",
	"table1":               "b733cbe21d99c100",
	"tuning":               "15b7ef9af5749877",
}

// pinnedFig6cBaseline is the one line of Figure 6 that depends on the
// baseline's evaluation. It read 2.291 mm while internal/baseline had its own
// prediction fold, anchored at the query's first vertex; through the shared
// fold it is 0.485 (TestBaselineAnchorWasTheOnlyDifference).
const pinnedFig6cBaseline = "# weighted-Euclidean baseline (same protocol): 0.485 mm — the model-based weighted distance must beat it"

func TestExperimentTablesPinned(t *testing.T) {
	env := quickEnv(t)
	for _, name := range Names() {
		switch name {
		case "efficiency", "dtw-cost":
			continue
		}
		var buf bytes.Buffer
		if err := (&Runner{Env: env, Out: &buf}).Run(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := fnv.New64a()
		for _, line := range strings.SplitAfter(buf.String(), "\n") {
			switch {
			case name == "fig8a" && strings.HasPrefix(line, "# "):
			case strings.HasPrefix(line, "# weighted-Euclidean baseline"):
				if got := strings.TrimSuffix(line, "\n"); got != pinnedFig6cBaseline {
					t.Errorf("%s: baseline comment\n got %q\nwant %q", name, got, pinnedFig6cBaseline)
				}
			default:
				h.Write([]byte(line))
			}
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != pinnedTables[name] {
			t.Errorf("%s: tables checksum %s, pinned %s\n%s", name, got, pinnedTables[name], buf.String())
		}
	}
}

// TestBaselineAnchorWasTheOnlyDifference: the deleted
// baseline.Matcher.PredictPosition differed from the core fold in one
// thing, the anchor — it added the matched displacement to the query's
// first vertex, where every core curve of Figure 6 anchors at the last.
// The shared fold told to anchor there too reproduces the old Figure 6c
// figure (2.291 mm at quick scale) to the printed precision.
func TestBaselineAnchorWasTheOnlyDifference(t *testing.T) {
	env := quickEnv(t)
	opts := core.DefaultEvalOptions()
	opts.QueriesPerStream = env.Scale.QueriesPerStream
	p := core.DefaultParams()
	p.AnchorAtQueryEnd = false
	got, err := baselineError(env, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if f3(got) != "2.291" {
		t.Errorf("first-vertex anchor: weighted-Euclidean error %s mm, the deleted fold printed 2.291", f3(got))
	}
}
