package nn

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"ccperf/internal/tensor"
)

// Workspace owns the reusable scratch memory for forward passes: a
// size-bucketed free list of activation buffers, a pool of tensor headers,
// a dedicated im2col scratch matrix and persistent kernel headers. After a
// warm-up pass every steady-state Forward through the same workspace
// performs zero heap allocations (docs/KERNELS.md describes the contract).
//
// A workspace is single-threaded: one forward pass at a time. Concurrent
// batch workers each take their own workspace from a WorkspacePool.
//
// Tensors handed out by Acquire/View stay valid until they are Released or
// the workspace is Reset — Net.Forward resets at entry, so a network
// output is valid until the next forward pass on the same workspace.
// Callers that keep results longer must Clone them.
type Workspace struct {
	// Workers is the goroutine fan-out for large dense convolution GEMMs
	// (tensor.ParallelMatMulFusedInto); ≤ 1 keeps them serial, as the serving
	// gateway runs them (its replicas already run in parallel).
	Workers int

	buckets [33][][]float32 // free buffers; bucket b holds cap 1<<b
	hdrFree []*tensor.Tensor
	lent    []lease

	colsBuf []float32     // dedicated im2col scratch, grown on demand
	colsM   tensor.Matrix // persistent header over colsBuf
	dstM    tensor.Matrix // persistent header binding GEMM outputs

	allocs uint64 // buffers + headers newly allocated (bucket misses)
	bytes  uint64 // bytes of those allocations
}

// lease records one outstanding tensor. owned marks buffers that came from
// the bucket free lists; views over foreign memory are recycled
// header-only.
type lease struct {
	t     *tensor.Tensor
	owned bool
}

// NewWorkspace returns an empty workspace. Buffers are allocated lazily on
// first use and recycled after that.
func NewWorkspace() *Workspace { return &Workspace{Workers: 1} }

// sameData reports whether two tensors share a backing array.
func sameData(a, b *tensor.Tensor) bool {
	return len(a.Data) > 0 && len(b.Data) > 0 && &a.Data[0] == &b.Data[0]
}

// bucketFor returns the free-list index for a buffer of at least n
// elements: the smallest b with 1<<b ≥ n.
func bucketFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// header returns a recycled tensor header, or a fresh one on a pool miss.
func (ws *Workspace) header() *tensor.Tensor {
	if n := len(ws.hdrFree); n > 0 {
		t := ws.hdrFree[n-1]
		ws.hdrFree = ws.hdrFree[:n-1]
		return t
	}
	ws.allocs++
	ws.bytes += 96 // approximate header + shape/stride storage
	return &tensor.Tensor{}
}

// Acquire returns a workspace-backed tensor of the given shape. Contents
// are NOT zeroed — layers must write every element (the fused kernels and
// pooling/activation loops all do).
func (ws *Workspace) Acquire(shape ...int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	var buf []float32
	if n > 0 {
		b := bucketFor(n)
		if l := len(ws.buckets[b]); l > 0 {
			buf = ws.buckets[b][l-1]
			ws.buckets[b][l-1] = nil
			ws.buckets[b] = ws.buckets[b][:l-1]
		} else {
			buf = make([]float32, 1<<b)
			ws.allocs++
			ws.bytes += uint64(4 << b)
		}
	}
	t := ws.header()
	t.SetData(buf[:n], shape...)
	ws.lent = append(ws.lent, lease{t: t, owned: n > 0})
	return t
}

// View returns a workspace header over foreign data without copying —
// how Flatten reshapes without allocating. Releasing a view never returns
// the underlying buffer to the free lists.
func (ws *Workspace) View(data []float32, shape ...int) *tensor.Tensor {
	t := ws.header()
	t.SetData(data, shape...)
	ws.lent = append(ws.lent, lease{t: t, owned: false})
	return t
}

// Release returns t's buffer (if workspace-owned) and header to the free
// lists. Releasing a tensor the workspace did not hand out — including one
// already released — is a no-op, so callers can release unconditionally.
func (ws *Workspace) Release(t *tensor.Tensor) {
	for i := range ws.lent {
		if ws.lent[i].t != t {
			continue
		}
		ws.retire(i)
		return
	}
}

// retire removes lease i, recycling its buffer and header.
func (ws *Workspace) retire(i int) {
	l := ws.lent[i]
	last := len(ws.lent) - 1
	ws.lent[i] = ws.lent[last]
	ws.lent[last] = lease{}
	ws.lent = ws.lent[:last]
	if l.owned {
		buf := l.t.Data[:cap(l.t.Data)]
		// Owned buffers are always exact power-of-two capacity; anything
		// else would corrupt the bucket invariant.
		if b := bucketFor(len(buf)); len(buf) == 1<<b {
			ws.buckets[b] = append(ws.buckets[b], buf)
		}
	}
	l.t.SetData(nil, 0)
	ws.hdrFree = append(ws.hdrFree, l.t)
}

// Reset returns every outstanding tensor to the free lists. Net.Forward
// calls it on entry, which is what bounds the workspace's footprint to one
// pass's peak while invalidating the previous pass's output.
func (ws *Workspace) Reset() {
	for len(ws.lent) > 0 {
		ws.retire(len(ws.lent) - 1)
	}
}

// Im2colScratch returns the workspace's dedicated im2col matrix sized
// rows×cols, growing the backing buffer if needed. The same matrix is
// returned every call — it is scratch for exactly one GEMM at a time.
func (ws *Workspace) Im2colScratch(rows, cols int) *tensor.Matrix {
	n := rows * cols
	if cap(ws.colsBuf) < n {
		ws.colsBuf = make([]float32, n)
		ws.allocs++
		ws.bytes += uint64(4 * n)
	}
	ws.colsM.Reset(ws.colsBuf[:cap(ws.colsBuf)][:n], rows, cols)
	return &ws.colsM
}

// BindMatrix rebinds the workspace's persistent output header around data.
// Like Im2colScratch, the same header is returned every call.
func (ws *Workspace) BindMatrix(data []float32, rows, cols int) *tensor.Matrix {
	ws.dstM.Reset(data, rows, cols)
	return &ws.dstM
}

// AllocStats reports the cumulative buffer/header allocations this
// workspace performed (bucket misses) and their total bytes. A warmed
// workspace stops accumulating — that is the property the serving gauge
// and the AllocsPerRun regression tests watch.
func (ws *Workspace) AllocStats() (allocs, bytes uint64) { return ws.allocs, ws.bytes }

// takeAllocStats returns and clears the counters (WorkspacePool aggregation).
func (ws *Workspace) takeAllocStats() (allocs, bytes uint64) {
	a, b := ws.allocs, ws.bytes
	ws.allocs, ws.bytes = 0, 0
	return a, b
}

// WorkspacePool hands workspaces to concurrent batch workers, backed by a
// sync.Pool so idle workspaces are reclaimable by the GC under memory
// pressure. It also aggregates the allocation counters of everything that
// passes through it, which feeds the serving-layer allocs/op gauge.
type WorkspacePool struct {
	pool    sync.Pool
	workers int
	allocs  atomic.Uint64
	bytes   atomic.Uint64
	gets    atomic.Uint64
}

// NewWorkspacePool returns a pool whose workspaces run convolution GEMMs
// with the given worker fan-out (≤ 1 = serial).
func NewWorkspacePool(workers int) *WorkspacePool {
	if workers < 1 {
		workers = 1
	}
	p := &WorkspacePool{workers: workers}
	p.pool.New = func() any {
		ws := NewWorkspace()
		ws.Workers = workers
		return ws
	}
	return p
}

// Get takes a workspace from the pool.
func (p *WorkspacePool) Get() *Workspace {
	p.gets.Add(1)
	return p.pool.Get().(*Workspace)
}

// Put resets ws, folds its allocation counters into the pool's aggregate,
// and returns it for reuse.
func (p *WorkspacePool) Put(ws *Workspace) {
	if ws == nil {
		return
	}
	ws.Reset()
	a, b := ws.takeAllocStats()
	if a > 0 {
		p.allocs.Add(a)
		p.bytes.Add(b)
	}
	p.pool.Put(ws)
}

// AllocStats reports cumulative allocations and bytes folded in by Put,
// plus the number of Get calls — the serving layer divides deltas of the
// first by deltas of the last for its allocs/op gauge.
func (p *WorkspacePool) AllocStats() (allocs, bytes, gets uint64) {
	return p.allocs.Load(), p.bytes.Load(), p.gets.Load()
}
