// Package compress implements the two accuracy-tuning techniques the paper
// surveys alongside pruning (Section 2.1): quantization — reducing the bit
// width of weight values [Gong et al., Zhou et al.] — and weight sharing —
// clustering weights to a small codebook [Abdel-Hamid et al.]. Both are
// real transforms on weight matrices, so their accuracy impact can be
// measured on the empirically trained network; both reduce memory (and
// quantization reduces time only on hardware with low-precision support,
// which the paper notes the K80/M60 generation lacks).
package compress

import (
	"fmt"
	"math"
	"sort"

	"ccperf/internal/tensor"
)

// Quantize snaps every weight to a symmetric uniform grid with 2^bits
// levels spanning [-max|w|, +max|w|]. bits must be in [1,32]; 32 is a
// no-op. Exact zeros (pruned weights) stay exactly zero, so quantization
// composes with pruning.
func Quantize(w *tensor.Matrix, bits int) error {
	if bits < 1 || bits > 32 {
		return fmt.Errorf("compress: bits %d out of [1,32]", bits)
	}
	if bits == 32 {
		return nil
	}
	var mx float32
	for _, v := range w.Data {
		a := v
		if a < 0 {
			a = -a
		}
		if a > mx {
			mx = a
		}
	}
	if mx == 0 {
		return nil
	}
	// Standard symmetric quantizer: indices k ∈ [−(2^(b−1)−1), +(2^(b−1)−1)]
	// with max|w| mapping to the largest index. Because the extremes land
	// on integer indices (not half-integers) the transform is numerically
	// idempotent. bits=1 degenerates to the sign grid {−max, 0, +max}.
	half := float64(int64(1)<<(bits-1) - 1)
	if bits == 1 {
		half = 1
	}
	delta := float64(mx) / half
	for i, v := range w.Data {
		if v == 0 {
			continue
		}
		k := math.Round(float64(v) / delta)
		if k > half {
			k = half
		} else if k < -half {
			k = -half
		}
		w.Data[i] = float32(k * delta)
	}
	return nil
}

// QuantizedBytes returns the storage footprint of the matrix at the given
// bit width (plus one float32 scale).
func QuantizedBytes(w *tensor.Matrix, bits int) int64 {
	return (int64(len(w.Data))*int64(bits)+7)/8 + 4
}

// WeightShare clusters the non-zero weights into at most k shared values
// with deterministic 1-D k-means (quantile initialization) and replaces
// each weight by its centroid. It returns the codebook actually used.
// Pruned (zero) weights are left untouched and excluded from clustering.
func WeightShare(w *tensor.Matrix, k, iters int) ([]float32, error) {
	if k < 1 {
		return nil, fmt.Errorf("compress: k %d < 1", k)
	}
	if iters < 1 {
		iters = 10
	}
	var vals []float64
	for _, v := range w.Data {
		if v != 0 {
			vals = append(vals, float64(v))
		}
	}
	if len(vals) == 0 {
		return nil, nil
	}
	sort.Float64s(vals)
	if k >= len(vals) {
		// Every distinct weight is its own centroid: identity transform.
		book := make([]float32, 0, len(vals))
		seen := map[float64]bool{}
		for _, v := range vals {
			if !seen[v] {
				seen[v] = true
				book = append(book, float32(v))
			}
		}
		return book, nil
	}
	// Quantile initialization over the sorted values.
	centroids := make([]float64, k)
	for i := range centroids {
		pos := float64(i) / float64(k-1+boolToInt(k == 1))
		idx := int(pos * float64(len(vals)-1))
		centroids[i] = vals[idx]
	}
	assign := make([]int, len(vals))
	for it := 0; it < iters; it++ {
		changed := false
		// Assignment: values are sorted, centroids stay sorted, so a
		// two-pointer sweep assigns in O(n + k).
		c := 0
		for i, v := range vals {
			for c+1 < k && math.Abs(centroids[c+1]-v) <= math.Abs(centroids[c]-v) {
				c++
			}
			if assign[i] != c {
				assign[i] = c
				changed = true
			}
		}
		// Update.
		sums := make([]float64, k)
		counts := make([]int, k)
		for i, v := range vals {
			sums[assign[i]] += v
			counts[assign[i]]++
		}
		for j := range centroids {
			if counts[j] > 0 {
				centroids[j] = sums[j] / float64(counts[j])
			}
		}
		sort.Float64s(centroids)
		if !changed && it > 0 {
			break
		}
	}
	// Replace weights by nearest centroid.
	for i, v := range w.Data {
		if v == 0 {
			continue
		}
		w.Data[i] = float32(nearest(centroids, float64(v)))
	}
	book := make([]float32, k)
	for i, c := range centroids {
		book[i] = float32(c)
	}
	return book, nil
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// nearest returns the closest value in sorted centroids to v.
func nearest(centroids []float64, v float64) float64 {
	i := sort.SearchFloat64s(centroids, v)
	if i == 0 {
		return centroids[0]
	}
	if i == len(centroids) {
		return centroids[len(centroids)-1]
	}
	if v-centroids[i-1] <= centroids[i]-v {
		return centroids[i-1]
	}
	return centroids[i]
}

// SharedBytes returns the storage footprint under weight sharing: an index
// of ⌈log2 k⌉ bits per weight plus the float32 codebook.
func SharedBytes(w *tensor.Matrix, k int) int64 {
	if k < 1 {
		return 0
	}
	bits := int64(math.Ceil(math.Log2(float64(k))))
	if bits < 1 {
		bits = 1
	}
	return (int64(len(w.Data))*bits+7)/8 + int64(k)*4
}

// DistinctValues counts the distinct non-zero weight values — after
// WeightShare(k) it is at most k.
func DistinctValues(w *tensor.Matrix) int {
	seen := map[float32]bool{}
	for _, v := range w.Data {
		if v != 0 {
			seen[v] = true
		}
	}
	return len(seen)
}

// TimeSpeedup returns the execution speedup quantization yields at the
// given bit width when the hardware supports fast low-precision math, and
// 1.0 when it does not — the paper's observation that quantization
// "improves the execution time if there is hardware support" (the K80/M60
// generation has none, so on Table 3's instances quantization saves memory
// only).
func TimeSpeedup(bits int, hardwareSupport bool) float64 {
	if !hardwareSupport || bits >= 32 || bits < 1 {
		return 1
	}
	return 32 / float64(bits)
}
