// Command clusterpat runs the offline analysis of Section 5 on a PLR
// database: stream and patient distances (Definitions 3-4), k-medoids
// and hierarchical clustering, and the correlation report between
// clusters and patient covariates (the Section 5.3 applications).
//
// Usage:
//
//	motiongen -o cohort.json
//	clusterpat -db cohort.json -k 4
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"stsmatch/internal/cluster"
	"stsmatch/internal/store"
)

func main() {
	dbPath := flag.String("db", "cohort.json", "PLR database (from motiongen or segmenter)")
	k := flag.Int("k", 0, "number of clusters (0 = pick by silhouette)")
	stride := flag.Int("stride", 4, "offline query stride (1 = exact Definition 3, slower)")
	dendro := flag.Bool("dendrogram", false, "print the hierarchical dendrogram")
	flag.Parse()

	f, err := os.Open(*dbPath)
	if err != nil {
		fatal(err)
	}
	db, err := store.ReadAny(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	cfg := cluster.DefaultConfig()
	cfg.QueryStride = *stride
	patients := db.Patients()
	if len(patients) < 2 {
		fatal(fmt.Errorf("need at least 2 patients, have %d", len(patients)))
	}

	fmt.Printf("computing patient distance matrix over %d patients...\n", len(patients))
	dm, err := cluster.PatientDistanceMatrix(patients, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("mean cross-patient distance: %.3f\n\n", dm.MeanOffDiagonal())

	var cl cluster.Clustering
	var sil float64
	if *k > 0 {
		cl, err = cluster.KMedoids(dm, *k, 42)
		if err != nil {
			fatal(err)
		}
		sil = cluster.Silhouette(dm, cl)
	} else {
		cl, sil, err = cluster.BestK(dm, 2, min(6, len(patients)-1), 42)
		if err != nil {
			fatal(err)
		}
	}
	fmt.Printf("k-medoids: k=%d, silhouette=%.3f\n", cl.K, sil)
	for ci, members := range cl.Clusters() {
		fmt.Printf("  cluster %d (medoid %s):", ci, patients[cl.Medoids[ci]].Info.ID)
		for _, i := range members {
			fmt.Printf(" %s", patients[i].Info.ID)
		}
		fmt.Println()
	}

	// Correlation report: does the clustering align with covariates?
	fmt.Println("\ncorrelation with patient covariates:")
	reportCorrelation(cl, patients, "breathing class", func(p *store.Patient) string { return p.Info.Class })
	reportCorrelation(cl, patients, "tumor site", func(p *store.Patient) string { return p.Info.TumorSite })

	if *dendro {
		fmt.Println("\nhierarchical clustering (average linkage):")
		root := cluster.Agglomerate(dm)
		fmt.Print(rename(root.String(), patients))
	}
}

// reportCorrelation prints purity and ARI of the clustering against a
// categorical covariate, plus the per-cluster label histogram.
func reportCorrelation(cl cluster.Clustering, patients []*store.Patient, name string, label func(*store.Patient) string) {
	labels := make([]string, len(patients))
	for i, p := range patients {
		labels[i] = label(p)
	}
	fmt.Printf("  %-15s purity=%.2f ARI=%.2f\n", name,
		cluster.Purity(cl, labels), cluster.AdjustedRandIndex(cl, labels))
	for ci, members := range cl.Clusters() {
		counts := map[string]int{}
		for _, i := range members {
			counts[labels[i]]++
		}
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("    cluster %d:", ci)
		for _, k := range keys {
			fmt.Printf(" %s=%d", k, counts[k])
		}
		fmt.Println()
	}
}

// rename replaces "item N" with patient IDs in the dendrogram dump.
func rename(s string, patients []*store.Patient) string {
	for i := len(patients) - 1; i >= 0; i-- {
		s = strings.ReplaceAll(s, fmt.Sprintf("item %d\n", i), patients[i].Info.ID+"\n")
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "clusterpat:", err)
	os.Exit(1)
}
