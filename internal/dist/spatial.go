package dist

import (
	"fmt"
	"sync"

	"mgdiffnet/internal/tensor"
	"mgdiffnet/internal/unet"
)

// HaloFor returns the halo width (in rows of the first spatial axis) that
// SpatialInference needs to reproduce the monolithic forward pass of net
// exactly: the receptive-field radius, rounded up to a multiple of the
// network's minimum input size so slab inputs stay aligned with the 2×
// pooling grid of the full-domain pass.
func HaloFor(net *unet.UNet) int {
	m := net.MinInputSize()
	r := net.ReceptiveFieldRadius()
	return (r + m - 1) / m * m
}

// SpatialInference evaluates a U-Net on a domain decomposed into slabs
// along the first spatial axis — the paper's model-parallel extension
// (§5): each worker owns one slab, exchanges halo rows with its ring
// neighbors through the Transport, runs the forward pass on its extended
// slab, and keeps only the interior. Because the halo covers the
// receptive field and slab boundaries are aligned with the pooling grid,
// every retained output value is computed from exactly the same inputs as
// the monolithic pass.
//
// Every convolution lowers to im2col+GEMM, which accumulates each output
// element's terms in a fixed order whatever the volume, so the result is
// bit-identical to the monolithic pass in 2D and 3D alike.
//
// SpatialInference is safe for concurrent Forward/ForwardInto calls: a
// pass owns the worker replicas and their scratch exclusively, so
// concurrent callers serialize on an internal mutex (the slab workers
// still run in parallel inside each pass). The per-worker extended-slab
// and halo scratch is reused across passes, so steady-state inference
// allocates nothing beyond the output tensor — and not even that when the
// caller provides one to ForwardInto.
type SpatialInference struct {
	workers int
	halo    int
	nets    []*unet.UNet // one clone per worker: forward caches are per-replica
	trs     []Transport

	mu   sync.Mutex       // one pass at a time; guards the scratch below
	ext  []*tensor.Tensor // per-worker extended-slab input scratch
	hbuf []*tensor.Tensor // per-worker halo exchange scratch
	exts [][]int          // per-worker extended-slab shape scratch, grown once

	shapeBuf []int   // output-shape scratch, grown once
	haloBuf  []int   // halo-shape scratch, grown once
	errBuf   []error // per-worker error slots, grown once
}

// NewSpatialInference builds a slab-decomposed evaluator over workers
// clones of net. halo is the overlap in rows on each interior slab
// boundary; pass HaloFor(net) for an exact decomposition.
func NewSpatialInference(net *unet.UNet, workers, halo int) (*SpatialInference, error) {
	if net == nil {
		return nil, fmt.Errorf("dist: nil network")
	}
	if workers < 1 {
		return nil, fmt.Errorf("dist: workers must be >= 1, got %d", workers)
	}
	m := net.MinInputSize()
	if workers > 1 {
		if halo < net.ReceptiveFieldRadius() {
			return nil, fmt.Errorf("dist: halo %d smaller than receptive-field radius %d; slabs would not match the monolithic forward",
				halo, net.ReceptiveFieldRadius())
		}
		if halo%m != 0 {
			return nil, fmt.Errorf("dist: halo %d must be a multiple of the U-Net minimum input size %d", halo, m)
		}
	}
	si := &SpatialInference{workers: workers, halo: halo}
	for w := 0; w < workers; w++ {
		c := net.Clone()
		// The replicas are owned outright and every output is copied into
		// the caller-visible tensor before the pass returns, so recycling
		// the layer buffers across passes is sound and makes steady-state
		// slab inference allocation-free.
		c.SetBufferReuse(true)
		si.nets = append(si.nets, c)
	}
	si.ext = make([]*tensor.Tensor, workers)
	si.hbuf = make([]*tensor.Tensor, workers)
	si.exts = make([][]int, workers)
	if workers > 1 {
		si.trs = NewChannelRing(workers)
	}
	return si, nil
}

// Workers returns the slab count.
func (s *SpatialInference) Workers() int { return s.workers }

// Halo returns the configured halo width.
func (s *SpatialInference) Halo() int { return s.halo }

// tailSize returns the number of elements per row of the first spatial
// axis (W in 2D, H·W in 3D).
func tailSize(t *tensor.Tensor) int {
	n := 1
	for i := 3; i < t.Rank(); i++ {
		n *= t.Dim(i)
	}
	return n
}

// copyRows copies rows [srcLo, srcLo+rows) of src's first spatial axis
// into dst starting at row dstLo. Batch, channel, and trailing spatial
// dimensions of the two tensors must agree.
func copyRows(dst, src *tensor.Tensor, dstLo, srcLo, rows int) {
	nc := src.Dim(0) * src.Dim(1)
	tail := tailSize(src)
	hs, hd := src.Dim(2), dst.Dim(2)
	for i := 0; i < nc; i++ {
		sBase := (i*hs + srcLo) * tail
		dBase := (i*hd + dstLo) * tail
		copy(dst.Data[dBase:dBase+rows*tail], src.Data[sBase:sBase+rows*tail])
	}
}

// Forward evaluates the decomposed network on x ([N, C, H, ...]) and
// returns the full-domain output, identical to nets[0].Forward(x, false).
// It is safe for concurrent use; see ForwardInto.
func (s *SpatialInference) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	return s.ForwardInto(nil, x)
}

// ForwardInto is Forward writing into a caller-provided output tensor. A
// nil or shape-mismatched dst is replaced by a fresh tensor; the tensor
// actually used is returned, so callers that hold onto it make the whole
// pass allocation-free in steady state. Concurrent calls are safe and
// serialize on an internal mutex (each pass already parallelizes across
// the slab workers internally, so overlapping passes would only thrash).
//
//mglint:hotpath
func (s *SpatialInference) ForwardInto(dst, x *tensor.Tensor) (*tensor.Tensor, error) {
	cfg := s.nets[0].Cfg
	wantRank := cfg.Dim + 2
	if x.Rank() != wantRank {
		return nil, fmt.Errorf("dist: expected rank-%d input for %dD, got %v", wantRank, cfg.Dim, x.Shape())
	}
	if x.Dim(1) != cfg.InChannels {
		return nil, fmt.Errorf("dist: expected %d input channels, got %d", cfg.InChannels, x.Dim(1))
	}
	m := s.nets[0].MinInputSize()
	// Validate every spatial extent here rather than letting the network
	// panic inside a worker goroutine (which would kill the process).
	for i := 2; i < wantRank; i++ {
		if d := x.Dim(i); d < m || d%m != 0 {
			return nil, fmt.Errorf("dist: spatial extent %d must be a positive multiple of %d", d, m)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	// Build the output shape in reused scratch: these small per-call
	// slices were the last steady-state allocations in the pass
	// (tensor.New copies the shape, so handing it scratch is safe).
	if cap(s.shapeBuf) < wantRank {
		s.shapeBuf = make([]int, wantRank)
	}
	outShape := s.shapeBuf[:wantRank]
	copy(outShape, x.Shape())
	outShape[1] = cfg.OutChannels

	if s.workers == 1 {
		// The replica recycles its output buffer (SetBufferReuse), so the
		// result must be copied out before the lock is released.
		y := s.nets[0].Forward(x, false)
		out := dst
		if out == nil || !out.ShapeIs(outShape...) {
			out = tensor.New(outShape...)
		}
		out.CopyFrom(y)
		return out, nil
	}
	H := x.Dim(2)
	if H%s.workers != 0 {
		return nil, fmt.Errorf("dist: extent %d not divisible into %d slabs", H, s.workers)
	}
	slab := H / s.workers
	if slab%m != 0 {
		return nil, fmt.Errorf("dist: slab height %d must be a multiple of the U-Net minimum input size %d", slab, m)
	}
	if s.halo > slab {
		return nil, fmt.Errorf("dist: halo %d exceeds slab height %d; use fewer workers or a larger domain", s.halo, slab)
	}

	out := dst
	if out == nil || !out.ShapeIs(outShape...) {
		//mglint:ignore hotalloc allocates only when the caller passes no reusable dst; callers that hold the returned tensor pay this once, which is the documented ForwardInto contract
		out = tensor.New(outShape...)
	}
	tailDims := x.Shape()[3:]
	N, C := x.Dim(0), x.Dim(1)
	if cap(s.haloBuf) < wantRank {
		s.haloBuf = make([]int, wantRank)
	}
	haloShape := s.haloBuf[:3+len(tailDims)]
	haloShape[0], haloShape[1], haloShape[2] = N, C, s.halo
	copy(haloShape[3:], tailDims)

	if cap(s.errBuf) < s.workers {
		s.errBuf = make([]error, s.workers)
	}
	errs := s.errBuf[:s.workers]
	var wg sync.WaitGroup
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		//mglint:ignore hotalloc one goroutine and closure per slab per pass is the fan-out design; the slab's convolution work dwarfs both
		go func(w int) {
			defer wg.Done()
			errs[w] = s.forwardSlab(w, x, out, slab, haloShape)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// scratchFor returns worker w's reusable scratch tensor from pool,
// replacing it when the requested shape changes.
func scratchFor(pool []*tensor.Tensor, w int, shape []int) *tensor.Tensor {
	if t := pool[w]; t != nil && t.ShapeIs(shape...) {
		return t
	}
	pool[w] = tensor.New(shape...)
	return pool[w]
}

// forwardSlab is one worker's share of Forward: exchange halos with the
// ring neighbors, run the network on the extended slab, keep the interior.
func (s *SpatialInference) forwardSlab(w int, x, out *tensor.Tensor, slab int, haloShape []int) error {
	lo, hi := w*slab, (w+1)*slab
	lo2, hi2 := lo, hi
	if w > 0 {
		lo2 = lo - s.halo
	}
	if w < s.workers-1 {
		hi2 = hi + s.halo
	}

	if cap(s.exts[w]) < x.Rank() {
		s.exts[w] = make([]int, x.Rank())
	}
	extShape := s.exts[w][:x.Rank()]
	copy(extShape, x.Shape())
	extShape[2] = hi2 - lo2
	ext := scratchFor(s.ext, w, extShape)
	copyRows(ext, x, lo-lo2, lo, slab) // the rows this worker owns

	// Halo exchange: boundary rows travel through the transport, exactly
	// as they would between MPI ranks that each hold only their slab.
	tr := s.trs[w]
	buf := scratchFor(s.hbuf, w, haloShape)
	if w > 0 {
		copyRows(buf, x, 0, lo, s.halo) // my top rows → left neighbor
		if err := tr.Send(w-1, buf.Data); err != nil {
			return err
		}
	}
	if w < s.workers-1 {
		copyRows(buf, x, 0, hi-s.halo, s.halo) // my bottom rows → right neighbor
		if err := tr.Send(w+1, buf.Data); err != nil {
			return err
		}
	}
	if w > 0 {
		if err := tr.Recv(w-1, buf.Data); err != nil {
			return err
		}
		copyRows(ext, buf, 0, 0, s.halo)
	}
	if w < s.workers-1 {
		if err := tr.Recv(w+1, buf.Data); err != nil {
			return err
		}
		copyRows(ext, buf, (hi - lo2), 0, s.halo)
	}

	y := s.nets[w].Forward(ext, false)
	copyRows(out, y, lo, lo-lo2, slab)
	return nil
}
