package unet

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"
)

// snapshot is the gob wire format of a trained network: the architecture
// config, the number of adaptation stages to replay, every parameter
// tensor, and the batch-norm running statistics.
type snapshot struct {
	Cfg       Config
	Adaptions int
	Params    [][]float64
	BNMeans   [][]float64
	BNVars    [][]float64
}

// Save serializes the network (weights, adaptation structure and batch-norm
// statistics) so cmd/mginfer can reload it.
func (u *UNet) Save(w io.Writer) error {
	s := snapshot{Cfg: u.Cfg, Adaptions: u.adaptions}
	for _, p := range u.Params() {
		buf := make([]float64, p.Data.Len())
		copy(buf, p.Data.Data)
		s.Params = append(s.Params, buf)
	}
	for _, bn := range collectBN(u) {
		m := make([]float64, len(bn.RunningMean))
		v := make([]float64, len(bn.RunningVar))
		copy(m, bn.RunningMean)
		copy(v, bn.RunningVar)
		s.BNMeans = append(s.BNMeans, m)
		s.BNVars = append(s.BNVars, v)
	}
	return gob.NewEncoder(w).Encode(&s)
}

// Load reconstructs a network saved with Save. A malformed snapshot is an
// error, never a panic: the architecture is checked against the weights
// the snapshot holds before anything is allocated for it, and non-finite
// weights or batch-norm statistics are rejected.
func Load(r io.Reader) (*UNet, error) {
	var s snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("unet: decode snapshot: %w", err)
	}
	if err := s.check(); err != nil {
		return nil, err
	}
	u := New(s.Cfg)
	for i := 0; i < s.Adaptions; i++ {
		u.Adapt()
	}
	ps := u.Params()
	if len(ps) != len(s.Params) {
		return nil, fmt.Errorf("unet: snapshot has %d parameter tensors, architecture expects %d", len(s.Params), len(ps))
	}
	for i, p := range ps {
		if len(s.Params[i]) != p.Data.Len() {
			return nil, fmt.Errorf("unet: parameter %d length %d, want %d", i, len(s.Params[i]), p.Data.Len())
		}
		copy(p.Data.Data, s.Params[i])
	}
	bns := collectBN(u)
	if len(bns) != len(s.BNMeans) || len(bns) != len(s.BNVars) {
		return nil, fmt.Errorf("unet: snapshot has %d mean / %d variance batch-norm vectors, architecture expects %d",
			len(s.BNMeans), len(s.BNVars), len(bns))
	}
	// Validate every length before copying anything: a mismatched or
	// corrupt snapshot must be rejected whole, not half-loaded.
	for i, bn := range bns {
		if len(s.BNMeans[i]) != bn.C || len(s.BNVars[i]) != bn.C {
			return nil, fmt.Errorf("unet: batch-norm layer %d has %d-channel means and %d-channel variances, want %d",
				i, len(s.BNMeans[i]), len(s.BNVars[i]), bn.C)
		}
	}
	for i, bn := range bns {
		copy(bn.RunningMean, s.BNMeans[i])
		copy(bn.RunningVar, s.BNVars[i])
	}
	return u, nil
}

// check validates what New and Adapt would be asked to build against what
// the snapshot holds. Each level and each adaptation adds parameter
// tensors, so Depth and Adaptions are bounded by their count; the
// architecture's tensor and scalar counts must then match the snapshot's,
// which bounds every allocation of New by the size of the input.
func (s *snapshot) check() error {
	c := s.Cfg
	switch {
	case c.Dim != 2 && c.Dim != 3:
		return fmt.Errorf("unet: snapshot Dim %d, want 2 or 3", c.Dim)
	case c.Depth < 1 || c.Depth > len(s.Params):
		return fmt.Errorf("unet: snapshot Depth %d outside [1, %d]", c.Depth, len(s.Params))
	case c.Kernel < 1 || c.Kernel%2 == 0:
		return fmt.Errorf("unet: snapshot Kernel %d, want odd and >= 1", c.Kernel)
	case c.BaseFilters < 1 || c.InChannels < 1 || c.OutChannels < 1:
		return fmt.Errorf("unet: snapshot BaseFilters %d, InChannels %d, OutChannels %d, want all >= 1", c.BaseFilters, c.InChannels, c.OutChannels)
	case s.Adaptions < 0 || s.Adaptions > len(s.Params):
		return fmt.Errorf("unet: snapshot Adaptions %d outside [0, %d]", s.Adaptions, len(s.Params))
	}
	tensors, scalars := archSize(c, s.Adaptions)
	if tensors != len(s.Params) {
		return fmt.Errorf("unet: snapshot has %d parameter tensors, architecture expects %d", len(s.Params), tensors)
	}
	total := 0
	for i, p := range s.Params {
		total += len(p)
		if !finite(p) {
			return fmt.Errorf("unet: parameter %d holds a non-finite value", i)
		}
	}
	if float64(total) != scalars {
		return fmt.Errorf("unet: snapshot parameter lengths sum to %d, architecture expects %.0f", total, scalars)
	}
	for _, stats := range [][][]float64{s.BNMeans, s.BNVars} {
		for i, v := range stats {
			if !finite(v) {
				return fmt.Errorf("unet: batch-norm layer %d holds a non-finite running statistic", i)
			}
		}
	}
	return nil
}

// archSize counts the parameter tensors and scalars that New(c) followed
// by adaptions Adapt calls allocates. Scalars are counted in float64 so
// that no field value can overflow the count.
func archSize(c Config, adaptions int) (tensors int, scalars float64) {
	taps := math.Pow(float64(c.Kernel), float64(c.Dim))
	conv := func(in, out, taps float64) { tensors, scalars = tensors+2, scalars+in*out*taps+out }
	block := func(in, out float64) {
		conv(in, out, taps)
		if c.BatchNorm {
			tensors, scalars = tensors+2, scalars+2*out
		}
	}
	ch := func(l int) float64 { return float64(c.BaseFilters) * math.Pow(2, float64(l)) }
	in := float64(c.InChannels)
	for l := 0; l < c.Depth; l++ {
		block(in, ch(l))
		in = ch(l)
	}
	block(in, ch(c.Depth))
	for l := 0; l < c.Depth; l++ {
		conv(ch(l+1), ch(l), math.Pow(2, float64(c.Dim))) // upsampler
		block(2*ch(l), ch(l))
	}
	conv(ch(0), float64(c.OutChannels), 1) // head
	if adaptions > 0 {
		// Adapt leaves one conv per call plus one more transpose conv.
		for range 2*adaptions + 1 {
			conv(ch(0), ch(0), taps)
		}
	}
	return tensors, scalars
}

func finite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// SaveFile writes the network to path. The Close error is propagated: a
// full disk or I/O failure may only surface at close, and dropping it
// would report a truncated weights file as saved.
func (u *UNet) SaveFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return u.Save(f)
}

// LoadFile reads a network from path.
func LoadFile(path string) (*UNet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
