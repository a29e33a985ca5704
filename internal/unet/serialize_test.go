package unet

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// trainedNet builds a small 3D network, adapts it twice, and runs a
// training pass so weights, adaptation structure, and batch-norm running
// statistics are all off their defaults.
func trainedNet(t *testing.T) *UNet {
	t.Helper()
	cfg := DefaultConfig(3)
	cfg.BaseFilters = 2
	cfg.Depth = 1
	u := New(cfg)
	u.Adapt()
	u.Adapt()
	rng := rand.New(rand.NewSource(90))
	for _, p := range u.Params() {
		for i := range p.Data.Data {
			p.Data.Data[i] += 0.05 * rng.NormFloat64()
		}
	}
	u.Forward(randInput(rng, 1, 1, 8, 8, 8), true)
	return u
}

// corruptedSnapshot saves u, decodes the raw snapshot, lets mutate corrupt
// it, and re-encodes it for Load.
func corruptedSnapshot(t *testing.T, u *UNet, mutate func(*snapshot)) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := u.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var s snapshot
	if err := gob.NewDecoder(&buf).Decode(&s); err != nil {
		t.Fatal(err)
	}
	mutate(&s)
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(&s); err != nil {
		t.Fatal(err)
	}
	return &out
}

func TestSaveLoadRoundTripAdapted3D(t *testing.T) {
	u := trainedNet(t)
	var buf bytes.Buffer
	if err := u.Save(&buf); err != nil {
		t.Fatal(err)
	}
	v, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(91))
	x := randInput(rng, 1, 1, 8, 8, 8)
	if d := u.Forward(x, false).RMSE(v.Forward(x, false)); d != 0 {
		t.Fatalf("loaded adapted network differs: RMSE %v", d)
	}
	// Running statistics must round-trip too, not just weights.
	ub, vb := collectBN(u), collectBN(v)
	for i := range ub {
		for j := range ub[i].RunningMean {
			if ub[i].RunningMean[j] != vb[i].RunningMean[j] || ub[i].RunningVar[j] != vb[i].RunningVar[j] {
				t.Fatalf("batch-norm stats %d differ after round trip", i)
			}
		}
	}
}

func TestLoadRejectsCorruptSnapshots(t *testing.T) {
	u := trainedNet(t)
	cases := map[string]struct {
		mutate  func(*snapshot)
		errWant string
	}{
		"missing param tensor": {
			func(s *snapshot) { s.Params = s.Params[:len(s.Params)-1] },
			"parameter tensors",
		},
		"wrong param length": {
			func(s *snapshot) { s.Params[0] = s.Params[0][:len(s.Params[0])-1] },
			"length",
		},
		"missing bn means": {
			func(s *snapshot) { s.BNMeans = s.BNMeans[:len(s.BNMeans)-1] },
			"batch-norm",
		},
		"missing bn vars": {
			func(s *snapshot) { s.BNVars = s.BNVars[:len(s.BNVars)-1] },
			"batch-norm",
		},
		"short bn means": {
			func(s *snapshot) { s.BNMeans[0] = s.BNMeans[0][:len(s.BNMeans[0])-1] },
			"channel",
		},
		"long bn vars": {
			func(s *snapshot) { s.BNVars[0] = append(s.BNVars[0], 1) },
			"channel",
		},
		"dim 5":            {func(s *snapshot) { s.Cfg.Dim = 5 }, "Dim"},
		"kernel 0":         {func(s *snapshot) { s.Cfg.Kernel = 0 }, "Kernel"},
		"even kernel":      {func(s *snapshot) { s.Cfg.Kernel = 2 }, "Kernel"},
		"depth -1":         {func(s *snapshot) { s.Cfg.Depth = -1 }, "Depth"},
		"no base filters":  {func(s *snapshot) { s.Cfg.BaseFilters = 0 }, "BaseFilters"},
		"no out channels":  {func(s *snapshot) { s.Cfg.OutChannels = 0 }, "OutChannels"},
		"huge adaptions":   {func(s *snapshot) { s.Adaptions = 1 << 40 }, "Adaptions"},
		"negative adapts":  {func(s *snapshot) { s.Adaptions = -1 }, "Adaptions"},
		"huge depth":       {func(s *snapshot) { s.Cfg.Depth = 1 << 40 }, "Depth"},
		"widest net fails": {func(s *snapshot) { s.Cfg.BaseFilters = 1 << 40 }, "length"},
		"deeper net fails": {func(s *snapshot) { s.Cfg.Depth = 2 }, "parameter tensors"},
		"nan weight":       {func(s *snapshot) { s.Params[3][0] = math.NaN() }, "non-finite"},
		"inf weight":       {func(s *snapshot) { s.Params[0][1] = math.Inf(-1) }, "non-finite"},
		"nan bn mean":      {func(s *snapshot) { s.BNMeans[1][0] = math.NaN() }, "non-finite"},
		"inf bn var":       {func(s *snapshot) { s.BNVars[0][0] = math.Inf(1) }, "non-finite"},
	}
	for name, tc := range cases {
		buf := corruptedSnapshot(t, u, tc.mutate)
		v, err := Load(buf)
		if err == nil {
			t.Errorf("%s: corrupt snapshot loaded without error", name)
			continue
		}
		if v != nil {
			t.Errorf("%s: Load returned a network alongside the error", name)
		}
		if !strings.Contains(err.Error(), tc.errWant) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.errWant)
		}
	}
}

// Snapshots written while Config still had a DirectConv field must keep
// loading: gob skips stream fields the struct lacks. oldConfig and
// oldSnapshot reproduce that wire format.
type oldConfig struct {
	Dim, InChannels, OutChannels, Depth, BaseFilters, Kernel int
	NegSlope                                                 float64
	BatchNorm, FinalSigmoid, DirectConv                      bool
	Seed                                                     int64
}

type oldSnapshot struct {
	Cfg                     oldConfig
	Adaptions               int
	Params, BNMeans, BNVars [][]float64
}

func TestLoadAcceptsRetiredConfigField(t *testing.T) {
	u := trainedNet(t)
	var buf bytes.Buffer
	if err := u.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var s snapshot
	if err := gob.NewDecoder(&buf).Decode(&s); err != nil {
		t.Fatal(err)
	}
	c := s.Cfg
	old := oldSnapshot{
		Cfg: oldConfig{c.Dim, c.InChannels, c.OutChannels, c.Depth, c.BaseFilters, c.Kernel,
			c.NegSlope, c.BatchNorm, c.FinalSigmoid, true, c.Seed},
		Adaptions: s.Adaptions, Params: s.Params, BNMeans: s.BNMeans, BNVars: s.BNVars,
	}
	var stream bytes.Buffer
	if err := gob.NewEncoder(&stream).Encode(&old); err != nil {
		t.Fatal(err)
	}
	v, err := Load(&stream)
	if err != nil {
		t.Fatalf("snapshot in the old format did not load: %v", err)
	}
	x := randInput(rand.New(rand.NewSource(92)), 2, 1, 8, 8, 8)
	want, got := u.Forward(x, false), v.Forward(x, false)
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("element %d: loaded %v, original %v", i, got.Data[i], want.Data[i])
		}
	}
}
