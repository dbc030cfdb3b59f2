package cluster

import (
	"testing"

	"specchar/internal/dataset"
)

// threeBlobs generates three well-separated Gaussian blobs in 2D.
func threeBlobs(perBlob int, seed uint64) (points [][]float64, truth []int) {
	r := dataset.NewRNG(seed)
	centers := [][2]float64{{0, 0}, {10, 0}, {5, 9}}
	for c, ctr := range centers {
		for i := 0; i < perBlob; i++ {
			points = append(points, []float64{
				ctr[0] + r.Normal(0, 0.5),
				ctr[1] + r.Normal(0, 0.5),
			})
			truth = append(truth, c)
		}
	}
	return points, truth
}

// agreesWithTruth checks that the assignment partitions points identically
// to the ground truth up to label permutation.
func agreesWithTruth(labels, truth []int) bool {
	mapping := map[int]int{}
	for i, l := range labels {
		if want, ok := mapping[l]; ok {
			if want != truth[i] {
				return false
			}
		} else {
			mapping[l] = truth[i]
		}
	}
	// Distinct labels must map to distinct truths.
	seen := map[int]bool{}
	for _, v := range mapping {
		if seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

func TestHierarchicalRecoversBlobs(t *testing.T) {
	points, truth := threeBlobs(25, 6)
	for _, linkage := range []Linkage{CompleteLinkage, SingleLinkage, AverageLinkage} {
		a, err := Hierarchical(points, 3, linkage)
		if err != nil {
			t.Fatal(err)
		}
		if !agreesWithTruth(a.Labels, truth) {
			t.Errorf("linkage %d failed to recover blobs", linkage)
		}
		// Centers are medoids: actual data points.
		for _, ctr := range a.Centers {
			found := false
			for _, p := range points {
				if p[0] == ctr[0] && p[1] == ctr[1] {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("linkage %d center %v is not a data point", linkage, ctr)
			}
		}
	}
}

func TestHierarchicalErrors(t *testing.T) {
	points, _ := threeBlobs(3, 7)
	if _, err := Hierarchical(points, 0, CompleteLinkage); err != ErrBadK {
		t.Errorf("k=0 err = %v", err)
	}
	if _, err := Hierarchical(points, 1000, CompleteLinkage); err != ErrBadK {
		t.Errorf("k too big err = %v", err)
	}
}

func TestHierarchicalKEqualsN(t *testing.T) {
	points, _ := threeBlobs(4, 8)
	a, err := Hierarchical(points, len(points), CompleteLinkage)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, l := range a.Labels {
		if seen[l] {
			t.Fatal("k=n should give singleton clusters")
		}
		seen[l] = true
	}
	if a.Inertia != 0 {
		t.Errorf("singleton inertia = %v", a.Inertia)
	}
}

func TestMedoids(t *testing.T) {
	points, _ := threeBlobs(20, 9)
	a, err := Hierarchical(points, 3, CompleteLinkage)
	if err != nil {
		t.Fatal(err)
	}
	meds := a.Medoids(points)
	if len(meds) != 3 {
		t.Fatalf("medoids = %v", meds)
	}
	// Medoids are sorted, distinct, in range, and in distinct clusters.
	seen := map[int]bool{}
	for i, m := range meds {
		if m < 0 || m >= len(points) {
			t.Fatalf("medoid %d out of range", m)
		}
		if i > 0 && meds[i-1] >= m {
			t.Error("medoids not sorted ascending")
		}
		if seen[a.Labels[m]] {
			t.Error("two medoids in the same cluster")
		}
		seen[a.Labels[m]] = true
	}
}

func TestSilhouette(t *testing.T) {
	points, _ := threeBlobs(20, 10)
	good, _ := Hierarchical(points, 3, CompleteLinkage)
	s3, err := Silhouette(points, good)
	if err != nil {
		t.Fatal(err)
	}
	if s3 < 0.7 {
		t.Errorf("silhouette of separated blobs = %v, want high", s3)
	}
	// Deliberately wrong k has a lower score.
	bad, _ := Hierarchical(points, 2, CompleteLinkage)
	s2, err := Silhouette(points, bad)
	if err != nil {
		t.Fatal(err)
	}
	if s2 >= s3 {
		t.Errorf("k=2 silhouette %v >= k=3 silhouette %v", s2, s3)
	}
	// k=1 is an error.
	one, _ := Hierarchical(points, 1, CompleteLinkage)
	if _, err := Silhouette(points, one); err == nil {
		t.Error("silhouette with k=1 should error")
	}
}
