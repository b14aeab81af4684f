package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json calibration reads: each
// end-to-end metric's bound.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadBounds(specPath string) (map[string]float64, error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return nil, err
	}
	var bs benchSpec
	if err := json.Unmarshal(raw, &bs); err != nil {
		return nil, fmt.Errorf("%s: %w", specPath, err)
	}
	bounds := make(map[string]float64, len(bs.EndToEnd))
	for _, m := range bs.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// calibrate runs o.repeat full sets back to back, set i with seed
// o.seed+i, and prints for every end-to-end metric of every workload
// its median over the sets, the spread the benchmark contract checks
// (inter-quartile range as a share of the median) and the worst
// pairwise disagreement. It fails if a spread exceeds the metric's
// bound in BENCHMARK.json; set-up time is reported but, as in the
// contract, its spread is not gated.
func calibrate(o options, specs []workloadSpec, w io.Writer) error {
	bounds, err := loadBounds(o.spec)
	if err != nil {
		return err
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	failed := 0
	for i := 0; i < o.repeat; i++ {
		set := o
		set.seed = o.seed + int64(i)
		fmt.Fprintf(w, "# set %d of %d, seed %d\n", i+1, o.repeat, set.seed)
		for _, spec := range specs {
			// One workload at a time, so names carry no prefix.
			res, err := runSet(set, []workloadSpec{spec}, w)
			if err != nil {
				return err
			}
			failed += res.Failed
			for name, mv := range res.Metrics {
				key := spec.name + "/" + name
				values[key] = append(values[key], mv.Value)
				units[key] = mv.Unit
			}
		}
	}
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "\n| workload/metric | unit | median of %d sets | IQR/median | worst pair | bound |\n|---|---|---|---|---|---|\n", o.repeat)
	var over []string
	for _, k := range keys {
		name := k[strings.IndexByte(k, '/')+1:]
		xs := values[k]
		spread, bound := iqrShare(xs), bounds[name]
		flag := ""
		if name != "setup_s" && spread > bound {
			flag = " OVER"
			over = append(over, k)
		}
		fmt.Fprintf(w, "| %s | %s | %.4g | %.1f%% | %.1f%% | %.0f%%%s |\n",
			k, units[k], median(xs), 100*spread, 100*worstPair(xs), 100*bound, flag)
	}
	if failed > 0 {
		return fmt.Errorf("calibration: %d operations or oracle checks failed", failed)
	}
	if len(over) > 0 {
		return fmt.Errorf("calibration: spread exceeds the bound for %s", strings.Join(over, ", "))
	}
	return nil
}
