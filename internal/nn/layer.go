// Package nn implements the CNN inference engine: convolution (dense and
// sparse), pooling, normalization, fully-connected and inception layers, a
// sequential network executor, and per-layer FLOP/byte/parameter accounting.
// The accounting feeds the GPU timing simulator in internal/gpusim; the
// forward pass executes genuine arithmetic so pruning has a real
// computational effect.
package nn

import (
	"fmt"

	"ccperf/internal/tensor"
)

// Shape is a CHW activation shape.
type Shape struct {
	C, H, W int
}

// Volume returns C*H*W.
func (s Shape) Volume() int { return s.C * s.H * s.W }

// String renders CxHxW.
func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.H, s.W, s.C) }

// Cost is the work and data footprint of one layer's forward pass on a
// single input. EffectiveFLOPs accounts for weight sparsity: a pruned layer
// executed through sparse kernels performs work proportional to its
// non-zero weights, which is what makes pruning reduce inference time.
type Cost struct {
	FLOPs           int64 // dense-equivalent floating point operations
	EffectiveFLOPs  int64 // sparsity-adjusted operations actually executed
	Params          int64 // weight + bias parameter count
	NNZ             int64 // non-zero parameters after pruning
	WeightBytes     int64 // bytes of weights read
	ActivationBytes int64 // bytes of activations read + written
}

// Add accumulates o into c.
func (c *Cost) Add(o Cost) {
	c.FLOPs += o.FLOPs
	c.EffectiveFLOPs += o.EffectiveFLOPs
	c.Params += o.Params
	c.NNZ += o.NNZ
	c.WeightBytes += o.WeightBytes
	c.ActivationBytes += o.ActivationBytes
}

// Layer is one stage of a CNN. Forward consumes and produces CHW tensors
// for a single image.
type Layer interface {
	// Name is the unique layer name within its network (e.g. "conv2").
	Name() string
	// Kind is the layer type tag (e.g. "conv", "fc", "pool").
	Kind() string
	// OutShape maps an input shape to the output shape.
	OutShape(in Shape) Shape
	// Forward runs the layer on one CHW input. ws supplies reusable scratch
	// and output memory; a nil ws makes the layer heap-allocate its output
	// (the pre-workspace behavior). Workspace-backed outputs stay valid
	// until the workspace is Reset — see Workspace.
	Forward(in *tensor.Tensor, ws *Workspace) *tensor.Tensor
	// Cost reports the work for one forward pass on the given input shape.
	Cost(in Shape) Cost
}

// wsAcquire returns a workspace tensor, or a fresh heap tensor when ws is
// nil. Workspace tensors are NOT zeroed; every layer writes its output
// densely.
func wsAcquire(ws *Workspace, c, h, w int) *tensor.Tensor {
	if ws == nil {
		return tensor.New(c, h, w)
	}
	return ws.Acquire(c, h, w)
}

// Prunable is implemented by layers whose weights can be pruned. The
// weight matrix is filter-major: row f holds all weights of output
// filter/neuron f.
type Prunable interface {
	Layer
	// Weights returns the live weight matrix (mutating it reprunes the layer).
	Weights() *tensor.Matrix
	// Rebuild must be called after mutating weights so sparse execution
	// structures and NNZ accounting are refreshed.
	Rebuild()
	// WeightSparsity returns the zero fraction of the weights in [0,1].
	WeightSparsity() float64
}
