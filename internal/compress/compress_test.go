package compress

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ccperf/internal/dataset"
	"ccperf/internal/nn"
	"ccperf/internal/tensor"
	"ccperf/internal/train"
)

func randMatrix(rows, cols int, seed int64) *tensor.Matrix {
	rng := rand.New(rand.NewSource(seed))
	w := tensor.NewMatrix(rows, cols)
	for i := range w.Data {
		w.Data[i] = float32(rng.NormFloat64())
	}
	return w
}

func TestQuantizeValidation(t *testing.T) {
	w := randMatrix(4, 4, 1)
	if err := Quantize(w, 0); err == nil {
		t.Fatal("expected error for bits=0")
	}
	if err := Quantize(w, 33); err == nil {
		t.Fatal("expected error for bits=33")
	}
}

func TestQuantize32IsNoop(t *testing.T) {
	w := randMatrix(8, 8, 2)
	orig := w.Clone()
	if err := Quantize(w, 32); err != nil {
		t.Fatal(err)
	}
	for i := range w.Data {
		if w.Data[i] != orig.Data[i] {
			t.Fatal("32-bit quantization must be identity")
		}
	}
}

func TestQuantizeErrorShrinksWithBits(t *testing.T) {
	prev := math.Inf(1)
	for _, bits := range []int{2, 4, 8, 16} {
		w := randMatrix(32, 32, 3)
		orig := w.Clone()
		if err := Quantize(w, bits); err != nil {
			t.Fatal(err)
		}
		var mse float64
		for i := range w.Data {
			d := float64(w.Data[i] - orig.Data[i])
			mse += d * d
		}
		if mse >= prev {
			t.Fatalf("MSE did not shrink at %d bits: %v >= %v", bits, mse, prev)
		}
		prev = mse
	}
}

func TestQuantizePreservesZeros(t *testing.T) {
	w := randMatrix(8, 8, 4)
	w.Data[3], w.Data[17] = 0, 0
	if err := Quantize(w, 4); err != nil {
		t.Fatal(err)
	}
	if w.Data[3] != 0 || w.Data[17] != 0 {
		t.Fatal("pruned zeros must survive quantization")
	}
}

func TestQuantizeLevelCount(t *testing.T) {
	w := randMatrix(64, 64, 5)
	if err := Quantize(w, 3); err != nil {
		t.Fatal(err)
	}
	// 3 bits → at most 2³−1 = 7 grid steps on each side of zero; distinct
	// non-zero values ≤ 8 (grid points within range, excluding 0).
	if n := DistinctValues(w); n > 8 {
		t.Fatalf("3-bit quantization left %d distinct values", n)
	}
}

func TestQuantizedBytes(t *testing.T) {
	w := tensor.NewMatrix(10, 10)
	if got := QuantizedBytes(w, 8); got != 100+4 {
		t.Fatalf("8-bit bytes = %d", got)
	}
	if got := QuantizedBytes(w, 1); got != 13+4 {
		t.Fatalf("1-bit bytes = %d", got)
	}
}

func TestWeightShareReducesDistinctValues(t *testing.T) {
	w := randMatrix(32, 32, 6)
	book, err := WeightShare(w, 16, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(book) != 16 {
		t.Fatalf("codebook size = %d", len(book))
	}
	if n := DistinctValues(w); n > 16 {
		t.Fatalf("%d distinct values after sharing to 16", n)
	}
	// Codebook sorted ascending.
	for i := 1; i < len(book); i++ {
		if book[i] < book[i-1] {
			t.Fatal("codebook not sorted")
		}
	}
}

func TestWeightSharePreservesZerosAndMean(t *testing.T) {
	w := randMatrix(16, 16, 7)
	w.Data[0], w.Data[100] = 0, 0
	var meanBefore float64
	for _, v := range w.Data {
		meanBefore += float64(v)
	}
	if _, err := WeightShare(w, 8, 20); err != nil {
		t.Fatal(err)
	}
	if w.Data[0] != 0 || w.Data[100] != 0 {
		t.Fatal("pruned zeros must survive weight sharing")
	}
	var meanAfter float64
	for _, v := range w.Data {
		meanAfter += float64(v)
	}
	// k-means to 8 clusters keeps the mean within a reasonable tolerance.
	if math.Abs(meanAfter-meanBefore)/float64(len(w.Data)) > 0.05 {
		t.Fatalf("mean drifted: %v → %v", meanBefore, meanAfter)
	}
}

func TestWeightShareKTooLargeIsIdentity(t *testing.T) {
	w := tensor.MatrixFromSlice([]float32{1, 2, 3, 0}, 2, 2)
	book, err := WeightShare(w, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(book) != 3 {
		t.Fatalf("identity codebook = %v", book)
	}
	want := []float32{1, 2, 3, 0}
	for i := range want {
		if w.Data[i] != want[i] {
			t.Fatal("k ≥ distinct values must be identity")
		}
	}
}

func TestWeightShareValidation(t *testing.T) {
	w := randMatrix(4, 4, 8)
	if _, err := WeightShare(w, 0, 5); err == nil {
		t.Fatal("expected error for k=0")
	}
	empty := tensor.NewMatrix(4, 4)
	book, err := WeightShare(empty, 4, 5)
	if err != nil || book != nil {
		t.Fatalf("all-zero matrix: book=%v err=%v", book, err)
	}
}

func TestSharedBytes(t *testing.T) {
	w := tensor.NewMatrix(100, 100) // 10 000 weights
	// k=16 → 4 bits/weight = 5000 bytes + 64-byte codebook.
	if got := SharedBytes(w, 16); got != 5000+64 {
		t.Fatalf("SharedBytes = %d", got)
	}
	if SharedBytes(w, 0) != 0 {
		t.Fatal("k=0 bytes")
	}
}

func TestTimeSpeedup(t *testing.T) {
	if TimeSpeedup(16, false) != 1 {
		t.Fatal("no hardware support ⇒ no speedup (the paper's K80/M60 case)")
	}
	if TimeSpeedup(16, true) != 2 || TimeSpeedup(8, true) != 4 {
		t.Fatal("supported speedups wrong")
	}
	if TimeSpeedup(32, true) != 1 {
		t.Fatal("32-bit is baseline")
	}
}

// The headline behaviour: on the really trained network, 8-bit
// quantization and 32-value sharing barely move accuracy, while 2-bit
// quantization damages it — quantization has its own sweet-spot, mirroring
// pruning's.
func TestCompressionAccuracyOnTrainedNet(t *testing.T) {
	shape := nn.Shape{C: 1, H: 16, W: 16}
	ds, err := dataset.Synthetic(dataset.Config{
		Classes: 10, PerClass: 60, Shape: shape, Noise: 1.2, Shift: 2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, val := ds.Split(0.75)
	m, err := train.New(train.Config{Input: shape, Conv1: 8, Conv2: 16, Classes: 10, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(tr, train.DefaultOpts()); err != nil {
		t.Fatal(err)
	}
	base, _, err := m.Evaluate(val, 3)
	if err != nil {
		t.Fatal(err)
	}

	quantized := func(bits int) float64 {
		c := m.Clone()
		for layer := 1; layer <= 2; layer++ {
			w, err := c.ConvWeights(layer)
			if err != nil {
				t.Fatal(err)
			}
			if err := Quantize(w, bits); err != nil {
				t.Fatal(err)
			}
		}
		a, _, err := c.Evaluate(val, 3)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	if a8 := quantized(8); base-a8 > 0.05 {
		t.Errorf("8-bit quantization cost %.2f accuracy (%.2f→%.2f)", base-a8, base, a8)
	}
	// 2-bit (ternary-like) quantization can even act as a regularizer on
	// this small net; 1 bit zeroes almost every weight and must collapse.
	if a1 := quantized(1); base-a1 < 0.05 {
		t.Errorf("1-bit quantization cost only %.2f accuracy — too gentle to be believable", base-a1)
	}

	shared := m.Clone()
	for layer := 1; layer <= 2; layer++ {
		w, _ := shared.ConvWeights(layer)
		if _, err := WeightShare(w, 32, 20); err != nil {
			t.Fatal(err)
		}
	}
	aShared, _, err := shared.Evaluate(val, 3)
	if err != nil {
		t.Fatal(err)
	}
	if base-aShared > 0.05 {
		t.Errorf("32-value weight sharing cost %.2f accuracy (%.2f→%.2f)", base-aShared, base, aShared)
	}
}

// Property: quantization is idempotent — quantizing twice at the same bit
// width changes nothing the second time.
func TestQuantizeIdempotentProperty(t *testing.T) {
	f := func(seed int64, bitsRaw uint8) bool {
		bits := int(bitsRaw%8) + 2
		w := randMatrix(8, 8, seed)
		if err := Quantize(w, bits); err != nil {
			return false
		}
		once := w.Clone()
		if err := Quantize(w, bits); err != nil {
			return false
		}
		for i := range w.Data {
			if math.Abs(float64(w.Data[i]-once.Data[i])) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
