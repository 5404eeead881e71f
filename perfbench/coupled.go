package main

import (
	"fmt"
	"time"

	"repro/internal/apps/climate"
	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/dcall"
	"repro/internal/grid"
)

const (
	episodeSteps = 25  // coupled steps per episode, each episode from the initial fields
	alpha        = 0.4 // damping of the Jacobi diffusion step
)

// coupledState is the paper's climate coupling (§2.3.1, Fig 2.1) on
// side x side fields: the ocean on the first half of the processors, the
// atmosphere on the second, driven step by step from the task level
// with the calls climate.Run makes.
type coupledState struct {
	m                      *core.Machine
	ocean, atmos           *core.Array
	oceanProcs, atmosProcs []int
	ref                    climate.Result
	deep, strato           []float64
	topLo, topHi           []int
	botLo, botHi           []int
}

// newCoupledState creates and fills both fields, block rows with the
// halo borders the diffusion program requires.
func newCoupledState(m *core.Machine) (*coupledState, error) {
	half := m.P() / 2
	c := &coupledState{m: m, oceanProcs: m.Procs(0, 1, half), atmosProcs: m.Procs(half, 1, half)}
	spec := func(procs []int) core.ArraySpec {
		return core.ArraySpec{
			Dims:    []int{side, side},
			Procs:   procs,
			Distrib: []grid.Decomp{grid.BlockDefault(), grid.NoDecomp()},
			Borders: climate.FieldBorders(),
		}
	}
	var err error
	if c.ocean, err = m.NewArray(spec(c.oceanProcs)); err != nil {
		return nil, fmt.Errorf("create ocean: %w", err)
	}
	if c.atmos, err = m.NewArray(spec(c.atmosProcs)); err != nil {
		return nil, fmt.Errorf("create atmosphere: %w", err)
	}
	return c, c.reset()
}

// reset refills both fields with the initial conditions.
func (c *coupledState) reset() error {
	if err := c.ocean.Fill(func(idx []int) float64 { return climate.InitialOcean(idx[0], idx[1]) }); err != nil {
		return fmt.Errorf("fill ocean: %w", err)
	}
	if err := c.atmos.Fill(func(idx []int) float64 { return climate.InitialAtmosphere(idx[0], idx[1]) }); err != nil {
		return fmt.Errorf("fill atmosphere: %w", err)
	}
	return nil
}

// prepare computes the sequential reference of one episode and the
// constant boundary rows (the values climate.Run uses).
func (c *coupledState) prepare() {
	c.ref = climate.RunSequential(climate.Config{Rows: side, Cols: side, Steps: episodeSteps, Alpha: alpha})
	c.deep = make([]float64, side)
	c.strato = make([]float64, side)
	for j := range c.deep {
		c.deep[j], c.strato[j] = 4, -30
	}
	c.topLo, c.topHi = []int{0, 0}, []int{1, side}
	c.botLo, c.botHi = []int{side - 1, 0}, []int{side, side}
}

// stepTimes are the boundaries of one coupled step: the serial coupling
// reads, then the two concurrent distributed calls.
type stepTimes struct {
	start, readEnd       time.Time
	oceanStart, oceanEnd time.Time
	atmosStart, atmosEnd time.Time
	end                  time.Time
}

// step runs one coupled time step: read each field's coupling row, then
// run both diffusion steps concurrently with the other's row as boundary.
func (c *coupledState) step() (stepTimes, error) {
	var t stepTimes
	t.start = time.Now()
	oceanTop, err := c.ocean.ReadBlock(c.topLo, c.topHi)
	if err != nil {
		return t, err
	}
	atmosBottom, err := c.atmos.ReadBlock(c.botLo, c.botHi)
	if err != nil {
		return t, err
	}
	t.readEnd = time.Now()
	var errO, errA error
	compose.Par(
		func() {
			t.oceanStart = time.Now()
			errO = c.m.Call(c.oceanProcs, climate.ProgDiffuse,
				dcall.Const(side), dcall.Const(side), dcall.Const(alpha),
				dcall.Const(atmosBottom), dcall.Const(c.deep), c.ocean.Param())
			t.oceanEnd = time.Now()
		},
		func() {
			t.atmosStart = time.Now()
			errA = c.m.CallOn(c.atmosProcs[0], c.atmosProcs, climate.ProgDiffuse,
				dcall.Const(side), dcall.Const(side), dcall.Const(alpha),
				dcall.Const(c.strato), dcall.Const(oceanTop), c.atmos.Param())
			t.atmosEnd = time.Now()
		},
	)
	t.end = time.Now()
	if errO != nil {
		return t, fmt.Errorf("ocean step: %w", errO)
	}
	if errA != nil {
		return t, fmt.Errorf("atmosphere step: %w", errA)
	}
	return t, nil
}

// check compares both fields after a full episode with the sequential
// reference, bit for bit.
func (c *coupledState) check() error {
	o, err := c.ocean.Snapshot()
	if err != nil {
		return fmt.Errorf("snapshot ocean: %w", err)
	}
	if err := sameBits("episode ocean field", -1, o, c.ref.Ocean); err != nil {
		return mismatch(err)
	}
	a, err := c.atmos.Snapshot()
	if err != nil {
		return fmt.Errorf("snapshot atmosphere: %w", err)
	}
	if err := sameBits("episode atmosphere field", -1, a, c.ref.Atmosphere); err != nil {
		return mismatch(err)
	}
	return nil
}
