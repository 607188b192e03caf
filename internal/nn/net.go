package nn

import (
	"fmt"

	"ccperf/internal/tensor"
)

// Net is a sequential CNN: layers execute in order on CHW tensors.
// Inception blocks appear as single composite layers.
type Net struct {
	Name   string
	Input  Shape
	layers []Layer
	shapes []Shape // shapes[i] is the input shape of layers[i]
	// fused[i] marks layers folded into their predecessor's kernel
	// epilogue (ReLU after conv/FC) and skipped by Forward. Computed by
	// planFusion during Init; nil means nothing is fused.
	fused []bool
}

// NewNet constructs an empty network with the given input shape.
func NewNet(name string, input Shape) *Net {
	return &Net{Name: name, Input: input}
}

// Add appends layers.
func (n *Net) Add(ls ...Layer) { n.layers = append(n.layers, ls...) }

// Layers returns the layer list in execution order.
func (n *Net) Layers() []Layer { return n.layers }

// Init wires input shapes through the network, initializing the weights of
// every Conv, FC and Inception layer deterministically from seed.
func (n *Net) Init(seed int64) error {
	n.shapes = make([]Shape, 0, len(n.layers))
	s := n.Input
	for i, l := range n.layers {
		n.shapes = append(n.shapes, s)
		switch v := l.(type) {
		case *Conv:
			if err := v.Init(s.C, seed+int64(i)*104729); err != nil {
				return err
			}
		case *FC:
			v.Init(s.Volume(), seed+int64(i)*104729)
		case *Inception:
			if err := v.Init(s.C, seed+int64(i)*104729); err != nil {
				return err
			}
		case *Residual:
			if err := v.Init(s, seed+int64(i)*104729); err != nil {
				return err
			}
		}
		s = l.OutShape(s)
	}
	n.planFusion()
	return nil
}

// planFusion folds each ReLU that directly follows a conv or FC layer into
// that layer's fused kernel epilogue, marking the ReLU itself as skipped.
// Cost accounting is untouched — only execution changes, and ReLU is
// idempotent so a fused-then-standalone replay would still be correct.
func (n *Net) planFusion() {
	n.fused = make([]bool, len(n.layers))
	for i := 0; i+1 < len(n.layers); i++ {
		if _, ok := n.layers[i+1].(*ReLU); !ok {
			continue
		}
		switch v := n.layers[i].(type) {
		case *Conv:
			v.fuseReLU = true
			n.fused[i+1] = true
		case *FC:
			v.fuseReLU = true
			n.fused[i+1] = true
		}
	}
}

// OutShape returns the network output shape.
func (n *Net) OutShape() Shape {
	s := n.Input
	for _, l := range n.layers {
		s = l.OutShape(s)
	}
	return s
}

// Forward runs a single CHW image through the network. With a non-nil
// workspace the pass is allocation-free once warm: the workspace is Reset
// on entry (invalidating the previous pass's output), each intermediate is
// released back to the workspace as soon as the next layer consumed it,
// and the returned tensor stays valid until the next Forward/Reset on the
// same workspace — Clone it to keep it longer. ws == nil allocates every
// activation on the heap, independently owned by the caller.
func (n *Net) Forward(in *tensor.Tensor, ws *Workspace) *tensor.Tensor {
	if in.Dim(0) != n.Input.C || in.Dim(1) != n.Input.H || in.Dim(2) != n.Input.W {
		panic(fmt.Sprintf("nn: %s input shape %v, want %v", n.Name, in.Shape, n.Input))
	}
	if ws != nil {
		ws.Reset()
	}
	x := in
	for i, l := range n.layers {
		if n.fused != nil && n.fused[i] {
			continue // folded into the previous layer's kernel epilogue
		}
		y := l.Forward(x, ws)
		if ws != nil && x != in && x != y && !sameData(x, y) {
			ws.Release(x)
		}
		x = y
	}
	return x
}

// LayerCost describes one layer's cost at its position in the network.
type LayerCost struct {
	Layer Layer
	In    Shape
	Out   Shape
	Cost  Cost
}

// LayerCosts returns per-layer costs in execution order. Init must have
// been called.
func (n *Net) LayerCosts() []LayerCost {
	if len(n.shapes) != len(n.layers) {
		panic("nn: LayerCosts before Init")
	}
	out := make([]LayerCost, len(n.layers))
	for i, l := range n.layers {
		out[i] = LayerCost{
			Layer: l,
			In:    n.shapes[i],
			Out:   l.OutShape(n.shapes[i]),
			Cost:  l.Cost(n.shapes[i]),
		}
	}
	return out
}

// TotalCost sums all layer costs.
func (n *Net) TotalCost() Cost {
	var c Cost
	for _, lc := range n.LayerCosts() {
		c.Add(lc.Cost)
	}
	return c
}

// Params returns the total parameter count.
func (n *Net) Params() int64 { return n.TotalCost().Params }

// Prunables returns every prunable layer, descending into inception blocks,
// keyed by layer name in execution order.
func (n *Net) Prunables() []Prunable {
	var out []Prunable
	for _, l := range n.layers {
		switch v := l.(type) {
		case *Conv:
			out = append(out, v)
		case *FC:
			out = append(out, v)
		case *Inception:
			for _, c := range v.Convs() {
				out = append(out, c)
			}
		case *Residual:
			out = append(out, v.Prunables()...)
		}
	}
	return out
}

// PrunableByName finds a prunable layer by name, descending into inception
// blocks. The boolean reports whether it was found.
func (n *Net) PrunableByName(name string) (Prunable, bool) {
	for _, p := range n.Prunables() {
		if p.Name() == name {
			return p, true
		}
	}
	return nil, false
}

// ConvLayers returns all convolution layers (descending into inception),
// in execution order.
func (n *Net) ConvLayers() []*Conv {
	var out []*Conv
	for _, l := range n.layers {
		switch v := l.(type) {
		case *Conv:
			out = append(out, v)
		case *Inception:
			out = append(out, v.Convs()...)
		case *Residual:
			for _, p := range v.Prunables() {
				if c, ok := p.(*Conv); ok {
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// InputShapeOf returns the input shape seen by the named top-level layer.
// Init must have been called.
func (n *Net) InputShapeOf(name string) (Shape, bool) {
	for i, l := range n.layers {
		if l.Name() == name {
			return n.shapes[i], true
		}
	}
	return Shape{}, false
}
