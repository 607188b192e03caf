package main

import (
	"fmt"
	"runtime"
	"time"

	"ccperf/internal/nn"
	"ccperf/internal/tensor"
)

// Replay sizes: enough passes that the medians settle, few enough that
// the replays stay near a second on the dense net.
const (
	replayPasses  = 200
	replayBatches = 40
	kernelReps    = 200
)

// replayLayers are the served net's layers whose self time is reported.
var replayLayers = []string{"conv1", "pool1", "conv2", "pool2", "fc1", "prob"}

// replayNet reports, for the served variant, each layer's self time in a
// chained Layer.Forward replay, the forward pass as the servers run it
// (Net.Forward at batch 1, ForwardBatchPool at batch 8), its heap
// allocations, and the conv layers' kernels on their own.
func replayNet(pool *imagePool, tr *trace, sink *report) error {
	net := pool.net
	ws := nn.NewWorkspace()
	for _, img := range pool.imgs {
		net.Forward(img, ws)
	}

	var b1 []float64
	for i := 0; i < replayPasses; i++ {
		img := pool.imgs[i%len(pool.imgs)]
		t0 := time.Now()
		net.Forward(img, ws)
		b1 = append(b1, ms(time.Since(t0)))
	}
	sink.set("nn.forward_ms_b1", median(b1))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < replayPasses; i++ {
		net.Forward(pool.imgs[i%len(pool.imgs)], ws)
	}
	runtime.ReadMemStats(&after)
	sink.set("nn.allocs_per_forward", float64(after.Mallocs-before.Mallocs)/replayPasses)

	wsPool := nn.NewWorkspacePool(1)
	batch := pool.imgs[:8]
	net.ForwardBatchPool(batch, 1, wsPool)
	var b8 []float64
	for i := 0; i < replayBatches; i++ {
		t0 := time.Now()
		net.ForwardBatchPool(batch, 1, wsPool)
		b8 = append(b8, ms(time.Since(t0)))
	}
	sink.set("nn.forward_ms_b8", median(b8))

	// Chained replay: each layer's Forward in order on one workspace,
	// skipping a ReLU that directly follows a conv or FC layer, since
	// Net.Forward folds it into that layer's kernel epilogue.
	origin := time.Now()
	layers := net.Layers()
	convIn := map[string]*tensor.Tensor{}
	convOut := map[string]*tensor.Tensor{}
	rws := nn.NewWorkspace()
	for i := 0; i < replayPasses; i++ {
		img := pool.imgs[i%len(pool.imgs)]
		rws.Reset()
		fwd := tr.add("nn.forward", -1, time.Since(origin), 0)
		x := img
		for j, l := range layers {
			if fusedReLU(layers, j) {
				continue
			}
			s := time.Since(origin)
			y := l.Forward(x, rws)
			tr.add("nn.layer."+l.Name(), fwd, s, time.Since(origin))
			if c, ok := l.(*nn.Conv); ok && i == 0 {
				convIn[c.Name()], convOut[c.Name()] = x.Clone(), y.Clone()
			}
			if x != img && x != y && !shareData(x, y) {
				rws.Release(x)
			}
			x = y
		}
		tr.spans[fwd].End = time.Since(origin)
		want := net.Forward(img, ws)
		if !equalData(x.Data, want.Data) {
			sink.incorrect(fmt.Sprintf("chained Layer.Forward replay differs from Net.Forward on image %d", i%len(pool.imgs)))
			break
		}
	}
	for _, name := range replayLayers {
		sink.set("nn.layer."+name+"_ms", median(tr.selfTimesMs("nn.layer."+name)))
	}
	sink.set("nn.glue_ms", median(tr.selfTimesMs("nn.forward")))
	return replayKernels(net, convIn, convOut, sink)
}

// fusedReLU mirrors Net.Forward's fusion: a ReLU right after a conv or FC
// layer runs inside that layer's kernel.
func fusedReLU(layers []nn.Layer, j int) bool {
	if _, ok := layers[j].(*nn.ReLU); !ok || j == 0 {
		return false
	}
	switch layers[j-1].(type) {
	case *nn.Conv, *nn.FC:
		return true
	}
	return false
}

func shareData(a, b *tensor.Tensor) bool {
	return len(a.Data) > 0 && len(b.Data) > 0 && &a.Data[0] == &b.Data[0]
}

func equalData(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// replayKernels times each conv layer's im2col and the GEMM kernel the
// layer selects (dense GEMM, or SpMM once pruning made the weights sparse
// enough), on the activation the chained replay fed that layer, and
// checks the kernel output against the layer's. GEMM FLOPs are computed
// from the layer's shapes (and, for SpMM, its nonzero weights), not
// counted by hardware.
func replayKernels(net *nn.Net, in, out map[string]*tensor.Tensor, sink *report) error {
	for _, name := range []string{"conv1", "conv2"} {
		l, ok := net.PrunableByName(name)
		c, isConv := l.(*nn.Conv)
		if !ok || !isConv || c.Groups != 1 {
			return fmt.Errorf("replay: %s is not a single-group conv layer", name)
		}
		shape, _ := net.InputShapeOf(name)
		g := tensor.ConvGeom{
			InC: shape.C, InH: shape.H, InW: shape.W,
			KH: c.KH, KW: c.KW, StrideH: c.StrideH, StrideW: c.StrideW, PadH: c.PadH, PadW: c.PadW,
		}
		cols := tensor.NewMatrix(g.InC*g.KH*g.KW, g.OutH()*g.OutW())
		dst := tensor.NewMatrix(c.OutC, cols.Cols)
		var csr *tensor.CSR
		if c.UsesSparseKernel() {
			csr = tensor.ToCSR(c.Weights())
		}
		gemm := func() {
			if csr != nil {
				tensor.SpMMFusedInto(dst, csr, cols, c.Bias(), true)
			} else {
				tensor.ParallelMatMulFusedInto(dst, c.Weights(), cols, c.Bias(), true, 1)
			}
		}
		var im, mm []float64
		for i := 0; i < kernelReps; i++ {
			t0 := time.Now()
			tensor.Im2ColInto(g, in[name].Data, cols)
			t1 := time.Now()
			gemm()
			t2 := time.Now()
			im = append(im, us(t1.Sub(t0)))
			mm = append(mm, us(t2.Sub(t1)))
		}
		if !equalData(dst.Data, out[name].Data) {
			sink.incorrect(fmt.Sprintf("kernel replay of %s differs from the layer's output", name))
		}
		kernel := "dense GEMM"
		flops := float64(tensor.ConvFLOPs(g, c.OutC))
		if csr != nil {
			kernel = "SpMM"
			flops = 2 * float64(csr.NNZ()) * float64(cols.Cols)
		}
		sink.info("kernel."+name, fmt.Sprintf("%s, %dx%d weights x %dx%d columns, %.0f FLOPs from shapes", kernel, c.OutC, cols.Rows, cols.Rows, cols.Cols, flops))
		sink.set("tensor.im2col_us."+name, median(im))
		sink.set("tensor.gemm_us."+name, median(mm))
		if name == "conv2" {
			sink.set("tensor.gemm_gflops.conv2", flops/(median(mm)*1e3))
		}
	}
	return nil
}
