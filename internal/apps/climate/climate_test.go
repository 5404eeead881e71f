package climate

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dcall"
	"repro/internal/grid"
)

func TestCoupledMatchesSequential(t *testing.T) {
	cfg := Config{Rows: 8, Cols: 6, Steps: 5, Alpha: 0.4}
	want := RunSequential(cfg)
	for _, p := range []int{2, 4, 8} {
		m := core.New(p)
		if err := RegisterPrograms(m); err != nil {
			t.Fatal(err)
		}
		got, err := Run(m, cfg)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		for i := range want.Ocean {
			if math.Abs(got.Ocean[i]-want.Ocean[i]) > 1e-12 {
				t.Fatalf("P=%d: ocean[%d] = %v, want %v", p, i, got.Ocean[i], want.Ocean[i])
			}
		}
		for i := range want.Atmosphere {
			if math.Abs(got.Atmosphere[i]-want.Atmosphere[i]) > 1e-12 {
				t.Fatalf("P=%d: atmos[%d] = %v, want %v", p, i, got.Atmosphere[i], want.Atmosphere[i])
			}
		}
		m.Close()
	}
}

// The §7.2.1 extension: boundary exchange over channels produces exactly
// the same evolution as the base (task-level) coupling and the sequential
// reference.
func TestChanneledMatchesSequential(t *testing.T) {
	cfg := Config{Rows: 8, Cols: 6, Steps: 5, Alpha: 0.4}
	want := RunSequential(cfg)
	for _, p := range []int{2, 4, 8} {
		m := core.New(p)
		if err := RegisterPrograms(m); err != nil {
			t.Fatal(err)
		}
		got, err := RunChanneled(m, cfg)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		for i := range want.Ocean {
			if math.Abs(got.Ocean[i]-want.Ocean[i]) > 1e-12 {
				t.Fatalf("P=%d: ocean[%d] = %v, want %v", p, i, got.Ocean[i], want.Ocean[i])
			}
		}
		for i := range want.Atmosphere {
			if math.Abs(got.Atmosphere[i]-want.Atmosphere[i]) > 1e-12 {
				t.Fatalf("P=%d: atmos[%d] = %v, want %v", p, i, got.Atmosphere[i], want.Atmosphere[i])
			}
		}
		m.Close()
	}
}

func TestChanneledValidation(t *testing.T) {
	m := core.New(4)
	defer m.Close()
	if err := RegisterPrograms(m); err != nil {
		t.Fatal(err)
	}
	if _, err := RunChanneled(m, Config{Rows: 5, Cols: 4, Steps: 1, Alpha: 0.1}); err == nil {
		t.Fatal("indivisible rows must fail")
	}
}

// The coupling is real: the ocean warms the atmosphere's lower rows over
// time (heat flows from the 15-degree ocean into the 5-degree atmosphere).
func TestCouplingTransfersHeat(t *testing.T) {
	cfg := Config{Rows: 8, Cols: 4, Steps: 0, Alpha: 0.5}
	before := RunSequential(cfg)
	cfg.Steps = 20
	after := RunSequential(cfg)
	// Bottom atmosphere row: initially ~4.65-4.71; must have warmed.
	rowStart := (cfg.Rows - 1) * cfg.Cols
	for j := 0; j < cfg.Cols; j++ {
		if after.Atmosphere[rowStart+j] <= before.Atmosphere[rowStart+j] {
			t.Fatalf("atmosphere bottom cell %d did not warm: %v -> %v",
				j, before.Atmosphere[rowStart+j], after.Atmosphere[rowStart+j])
		}
	}
}

func TestRunValidation(t *testing.T) {
	m := core.New(3)
	defer m.Close()
	if err := RegisterPrograms(m); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(m, Config{Rows: 4, Cols: 4, Steps: 1, Alpha: 0.1}); err == nil {
		t.Fatal("odd machine size must fail")
	}
	m2 := core.New(4)
	defer m2.Close()
	if err := RegisterPrograms(m2); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(m2, Config{Rows: 5, Cols: 4, Steps: 1, Alpha: 0.1}); err == nil {
		t.Fatal("indivisible rows must fail")
	}
}

// TestHaloMessageBudget pins the diffusion step's halo traffic: one
// ProgDiffuse call on P copies exchanges exactly one message per
// neighbour — plus the fixed call overhead of one find_local per copy and
// the P-1 combine-tree messages — however wide the field.
func TestHaloMessageBudget(t *testing.T) {
	const rows, cols, p = 16, 8, 4
	m := core.New(p)
	defer m.Close()
	if err := RegisterPrograms(m); err != nil {
		t.Fatal(err)
	}
	procs := m.AllProcs()
	field, err := m.NewArray(core.ArraySpec{
		Dims:    []int{rows, cols},
		Procs:   procs,
		Distrib: []grid.Decomp{grid.BlockDefault(), grid.NoDecomp()},
		Borders: FieldBorders(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := field.Fill(func(idx []int) float64 { return InitialOcean(idx[0], idx[1]) }); err != nil {
		t.Fatal(err)
	}
	row := make([]float64, cols)

	router := m.VM.Router()
	before := router.Sent()
	if err := m.Call(procs, ProgDiffuse,
		dcall.Const(rows), dcall.Const(cols), dcall.Const(0.4),
		dcall.Const(row), dcall.Const(row),
		field.Param()); err != nil {
		t.Fatal(err)
	}
	// 2*(p-1) halo rows + p-1 combines; find_local runs in the caller
	// on each processor and sends nothing.
	want := uint64(2*(p-1) + (p - 1))
	if got := router.Sent() - before; got != want {
		t.Fatalf("diffuse call sent %d messages, want %d (one halo message per neighbour per step)", got, want)
	}
}

// TestForeignBordersVerify covers the §4.2.7 workflow for the diffusion
// program: a field created without borders is corrected by verify_array
// against the program's registered border callback, after which the call
// succeeds.
func TestForeignBordersVerify(t *testing.T) {
	const rows, cols, p = 8, 4, 2
	m := core.New(p)
	defer m.Close()
	if err := RegisterPrograms(m); err != nil {
		t.Fatal(err)
	}
	procs := m.AllProcs()
	field, err := m.NewArray(core.ArraySpec{
		Dims:    []int{rows, cols},
		Procs:   procs,
		Distrib: []grid.Decomp{grid.BlockDefault(), grid.NoDecomp()},
		// No borders at creation time.
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := field.Fill(func(idx []int) float64 { return InitialOcean(idx[0], idx[1]) }); err != nil {
		t.Fatal(err)
	}
	row := make([]float64, cols)
	call := func() error {
		return m.Call(procs, ProgDiffuse,
			dcall.Const(rows), dcall.Const(cols), dcall.Const(0.4),
			dcall.Const(row), dcall.Const(row),
			field.Param())
	}
	if err := call(); err == nil {
		t.Fatal("call on a borderless field must fail")
	}
	if err := field.Verify(2, core.ForeignBordersOf(ProgDiffuse, 5), grid.RowMajor); err != nil {
		t.Fatal(err)
	}
	if err := call(); err != nil {
		t.Fatalf("call after verify: %v", err)
	}
}
