package cluster

import (
	"reflect"
	"sort"
	"testing"

	"stsmatch/internal/stats"
)

// twoBlobMatrix builds a distance matrix with two well-separated
// groups: items [0,half) and [half,n).
func twoBlobMatrix(n, half int) *stats.DistMatrix {
	m := stats.NewDistMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sameGroup := (i < half) == (j < half)
			if sameGroup {
				m.Set(i, j, 1+0.1*float64((i+j)%3))
			} else {
				m.Set(i, j, 10+0.1*float64((i+j)%3))
			}
		}
	}
	return m
}

func groupsOf(c Clustering) [][]int {
	gs := c.Clusters()
	for _, g := range gs {
		sort.Ints(g)
	}
	sort.Slice(gs, func(a, b int) bool {
		if len(gs[a]) == 0 || len(gs[b]) == 0 {
			return len(gs[a]) > len(gs[b])
		}
		return gs[a][0] < gs[b][0]
	})
	return gs
}

func TestKMedoidsSeparatesBlobs(t *testing.T) {
	m := twoBlobMatrix(10, 5)
	c, err := KMedoids(m, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	gs := groupsOf(c)
	if !reflect.DeepEqual(gs[0], []int{0, 1, 2, 3, 4}) ||
		!reflect.DeepEqual(gs[1], []int{5, 6, 7, 8, 9}) {
		t.Errorf("clusters = %v", gs)
	}
	if len(c.Medoids) != 2 {
		t.Errorf("medoids = %v", c.Medoids)
	}
	if c.Cost <= 0 {
		t.Errorf("cost = %v", c.Cost)
	}
}

func TestKMedoidsDeterministicForSeed(t *testing.T) {
	m := twoBlobMatrix(12, 6)
	c1, _ := KMedoids(m, 3, 7)
	c2, _ := KMedoids(m, 3, 7)
	if !reflect.DeepEqual(c1.Assign, c2.Assign) {
		t.Error("same seed produced different clusterings")
	}
}

func TestKMedoidsEdgeCases(t *testing.T) {
	m := twoBlobMatrix(4, 2)
	if _, err := KMedoids(m, 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := KMedoids(m, 5, 1); err == nil {
		t.Error("k>n accepted")
	}
	// k == n: every item its own cluster, zero cost.
	c, err := KMedoids(m, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cost != 0 {
		t.Errorf("k=n cost = %v, want 0", c.Cost)
	}
	// k == 1: all together.
	c, err = KMedoids(m, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range c.Assign {
		if a != 0 {
			t.Error("k=1 must assign everything to cluster 0")
		}
	}
}

func TestSilhouettePrefersTrueK(t *testing.T) {
	m := twoBlobMatrix(12, 6)
	c2, _ := KMedoids(m, 2, 3)
	c4, _ := KMedoids(m, 4, 3)
	s2 := Silhouette(m, c2)
	s4 := Silhouette(m, c4)
	if s2 <= s4 {
		t.Errorf("silhouette should prefer k=2: s2=%v s4=%v", s2, s4)
	}
	if s2 < 0.5 {
		t.Errorf("well-separated blobs should score high: %v", s2)
	}
}

func TestBestKFindsTwo(t *testing.T) {
	m := twoBlobMatrix(12, 6)
	best, score, err := BestK(m, 2, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	if best.K != 2 {
		t.Errorf("BestK chose k=%d, want 2", best.K)
	}
	if score <= 0 {
		t.Errorf("score = %v", score)
	}
}

func TestAgglomerateTwoBlobs(t *testing.T) {
	m := twoBlobMatrix(8, 4)
	root := Agglomerate(m)
	if root == nil {
		t.Fatal("nil dendrogram")
	}
	if root.Size != 8 {
		t.Errorf("root size = %d", root.Size)
	}
	// Root height must be the cross-blob distance (~10); its children
	// should be the two blobs.
	if root.Height < 9 {
		t.Errorf("root height = %v, want ~10", root.Height)
	}
	leaves := root.Leaves()
	sort.Ints(leaves)
	if !reflect.DeepEqual(leaves, []int{0, 1, 2, 3, 4, 5, 6, 7}) {
		t.Errorf("leaves = %v", leaves)
	}
	blobs := [][]int{root.Left.Leaves(), root.Right.Leaves()}
	for _, b := range blobs {
		sort.Ints(b)
	}
	sort.Slice(blobs, func(i, j int) bool { return blobs[i][0] < blobs[j][0] })
	if !reflect.DeepEqual(blobs, [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}) {
		t.Errorf("root's children = %v, want the two blobs", blobs)
	}
}

func TestAgglomerateSingleAndEmpty(t *testing.T) {
	if Agglomerate(stats.NewDistMatrix(0)) != nil {
		t.Error("empty matrix should give nil root")
	}
	root := Agglomerate(stats.NewDistMatrix(1))
	if root == nil || root.Item != 0 || root.Size != 1 {
		t.Errorf("singleton root = %+v", root)
	}
}

func TestDendrogramString(t *testing.T) {
	m := twoBlobMatrix(4, 2)
	root := Agglomerate(m)
	s := root.String()
	if len(s) == 0 {
		t.Error("empty dendrogram rendering")
	}
}

func TestPurity(t *testing.T) {
	c := Clustering{K: 2, Assign: []int{0, 0, 0, 1, 1, 1}}
	labels := []string{"a", "a", "b", "b", "b", "b"}
	// Cluster 0 majority a (2/3), cluster 1 all b (3/3) -> 5/6.
	if got := Purity(c, labels); got != 5.0/6 {
		t.Errorf("purity = %v, want %v", got, 5.0/6)
	}
	if Purity(c, nil) != 0 {
		t.Error("mismatched labels should give 0")
	}
	perfect := Clustering{K: 2, Assign: []int{0, 0, 1, 1}}
	if got := Purity(perfect, []string{"x", "x", "y", "y"}); got != 1 {
		t.Errorf("perfect purity = %v", got)
	}
}

func TestAdjustedRandIndex(t *testing.T) {
	perfect := Clustering{K: 2, Assign: []int{0, 0, 1, 1}}
	if got := AdjustedRandIndex(perfect, []string{"x", "x", "y", "y"}); got != 1 {
		t.Errorf("perfect ARI = %v, want 1", got)
	}
	// Label names don't matter, only the partition.
	if got := AdjustedRandIndex(perfect, []string{"q", "q", "r", "r"}); got != 1 {
		t.Errorf("renamed ARI = %v, want 1", got)
	}
	// A single cluster against two labels: ARI 0.
	single := Clustering{K: 1, Assign: []int{0, 0, 0, 0}}
	if got := AdjustedRandIndex(single, []string{"x", "x", "y", "y"}); got != 0 {
		t.Errorf("uninformative ARI = %v, want 0", got)
	}
	if AdjustedRandIndex(perfect, nil) != 0 {
		t.Error("mismatched labels should give 0")
	}
}
