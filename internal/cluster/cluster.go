// Package cluster implements the clustering half of the benchmark
// subsetting methodology the paper's related-work section surveys
// (Section II, refs [11]-[14]): agglomerative hierarchical clustering over
// benchmark feature vectors, silhouette scoring for cluster-count
// selection, and medoid extraction for representative-subset
// construction.
//
// Combined with internal/pca this reproduces the "PCA + clustering"
// subsetting pipeline the paper positions its model-tree approach
// against; the facade's subsetting experiment compares the two on the
// same synthetic suites.
package cluster

import (
	"errors"
	"math"
	"sort"
)

// ErrBadK is returned when k is out of range for the point count.
var ErrBadK = errors.New("cluster: k must satisfy 1 <= k <= len(points)")

// Assignment is the result of a clustering: cluster index per point plus
// the cluster centers (the medoid point of each cluster).
type Assignment struct {
	Labels  []int       // Labels[i] = cluster of point i, in [0, K)
	Centers [][]float64 // one center per cluster
	K       int
	// Inertia is the total squared distance of points to their centers.
	Inertia float64
}

// Members returns the indices of points in the given cluster.
func (a *Assignment) Members(cluster int) []int {
	var out []int
	for i, l := range a.Labels {
		if l == cluster {
			out = append(out, i)
		}
	}
	return out
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Linkage selects the inter-cluster distance rule for hierarchical
// clustering.
type Linkage int

// Supported linkage rules.
const (
	CompleteLinkage Linkage = iota // max pairwise distance
	SingleLinkage                  // min pairwise distance
	AverageLinkage                 // mean pairwise distance
)

// Hierarchical performs agglomerative clustering down to k clusters under
// the given linkage, using Euclidean distance. Centers in the result are
// cluster medoids (the member minimizing total distance to the others),
// which is what subset selection wants: actual benchmarks, not synthetic
// centroids.
func Hierarchical(points [][]float64, k int, linkage Linkage) (*Assignment, error) {
	n := len(points)
	if k < 1 || k > n {
		return nil, ErrBadK
	}
	// Pairwise distance matrix.
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := 0; j < i; j++ {
			d := math.Sqrt(sqDist(points[i], points[j]))
			dist[i][j] = d
			dist[j][i] = d
		}
	}
	// Active clusters as member lists.
	clusters := make([][]int, n)
	for i := range clusters {
		clusters[i] = []int{i}
	}
	linkDist := func(a, b []int) float64 {
		switch linkage {
		case SingleLinkage:
			best := math.Inf(1)
			for _, i := range a {
				for _, j := range b {
					if dist[i][j] < best {
						best = dist[i][j]
					}
				}
			}
			return best
		case AverageLinkage:
			var s float64
			for _, i := range a {
				for _, j := range b {
					s += dist[i][j]
				}
			}
			return s / float64(len(a)*len(b))
		default: // CompleteLinkage
			best := 0.0
			for _, i := range a {
				for _, j := range b {
					if dist[i][j] > best {
						best = dist[i][j]
					}
				}
			}
			return best
		}
	}
	for len(clusters) > k {
		bi, bj, bd := -1, -1, math.Inf(1)
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				if d := linkDist(clusters[i], clusters[j]); d < bd {
					bi, bj, bd = i, j, d
				}
			}
		}
		merged := append(append([]int{}, clusters[bi]...), clusters[bj]...)
		sort.Ints(merged)
		next := make([][]int, 0, len(clusters)-1)
		for idx, c := range clusters {
			if idx != bi && idx != bj {
				next = append(next, c)
			}
		}
		clusters = append(next, merged)
	}
	a := &Assignment{Labels: make([]int, n), K: k, Centers: make([][]float64, k)}
	for c, members := range clusters {
		for _, i := range members {
			a.Labels[i] = c
		}
		m := medoid(points, members, dist)
		a.Centers[c] = append([]float64(nil), points[m]...)
	}
	for i, p := range points {
		a.Inertia += sqDist(p, a.Centers[a.Labels[i]])
	}
	return a, nil
}

// medoid returns the member index minimizing total distance to the other
// members (ties break to the lowest index for determinism).
func medoid(points [][]float64, members []int, dist [][]float64) int {
	best, bestSum := members[0], math.Inf(1)
	for _, i := range members {
		var s float64
		for _, j := range members {
			s += dist[i][j]
		}
		if s < bestSum {
			best, bestSum = i, s
		}
	}
	return best
}

// Medoids returns, per cluster, the index of the member closest (in total
// distance) to its cluster-mates — the representative-subset picks.
func (a *Assignment) Medoids(points [][]float64) []int {
	n := len(points)
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := 0; j < i; j++ {
			d := math.Sqrt(sqDist(points[i], points[j]))
			dist[i][j] = d
			dist[j][i] = d
		}
	}
	out := make([]int, 0, a.K)
	for c := 0; c < a.K; c++ {
		members := a.Members(c)
		if len(members) == 0 {
			continue
		}
		out = append(out, medoid(points, members, dist))
	}
	sort.Ints(out)
	return out
}

// Silhouette returns the mean silhouette coefficient of the assignment
// over the points: values near 1 mean tight, well-separated clusters;
// near 0, overlapping ones; negative, misassigned points. Requires k >= 2.
func Silhouette(points [][]float64, a *Assignment) (float64, error) {
	if a.K < 2 {
		return 0, errors.New("cluster: silhouette requires k >= 2")
	}
	n := len(points)
	if n != len(a.Labels) {
		return 0, errors.New("cluster: assignment does not match points")
	}
	var total float64
	counted := 0
	for i := 0; i < n; i++ {
		own := a.Labels[i]
		// Mean distance to own cluster (excluding self) and the nearest
		// other cluster.
		sums := make([]float64, a.K)
		counts := make([]int, a.K)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			d := math.Sqrt(sqDist(points[i], points[j]))
			sums[a.Labels[j]] += d
			counts[a.Labels[j]]++
		}
		if counts[own] == 0 {
			continue // singleton cluster: silhouette undefined, skip
		}
		ai := sums[own] / float64(counts[own])
		bi := math.Inf(1)
		for c := 0; c < a.K; c++ {
			if c == own || counts[c] == 0 {
				continue
			}
			if m := sums[c] / float64(counts[c]); m < bi {
				bi = m
			}
		}
		if math.IsInf(bi, 1) {
			continue
		}
		den := ai
		if bi > den {
			den = bi
		}
		if den > 0 {
			total += (bi - ai) / den
		}
		counted++
	}
	if counted == 0 {
		return 0, errors.New("cluster: silhouette undefined (all singletons)")
	}
	return total / float64(counted), nil
}
