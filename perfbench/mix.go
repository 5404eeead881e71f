package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/arraymgr"
	"repro/internal/core"
	"repro/internal/darray"
	"repro/internal/grid"
)

// class is one operation class of the access mix.
type class uint8

const (
	readDense class = iota
	readLocal
	readStrided
	gatherOp
	writeDense
	scatterOp
	redistOp
	nClasses
)

var classNames = [nClasses]string{"read_dense", "read_local", "read_strided", "gather", "write_dense", "scatter", "redist"}

// classWeights is the mix by operation count, in percent. Reads and
// writes of the same regions sit side by side, so a change that helps
// one and costs the other shows in the same run.
var classWeights = [nClasses]int{25, 20, 10, 10, 20, 10, 5}

const (
	side       = 128 // A and C are side x side float64 arrays (128 KiB each)
	localSide  = 8   // read_local reads a random localSide x localSide square
	nIdx       = 64  // gather and scatter touch nIdx random elements
	bandRows   = 16  // redist copies a random band of bandRows full rows
	strideStep = 2   // read_strided takes every second row and column
	nWriteBufs = 8   // write_dense writes one of nWriteBufs seeded buffers
)

// op is one generated operation. idx and vals alias the generator's
// buffers and are valid until the next call to gen.
type op struct {
	cls    class
	id     int64
	lo, hi [2]int // read_local square, redist band
	idx    [][]int
	vals   []float64
	wbuf   int
}

// opGen turns a seed into the access mix's operation sequence. It
// allocates nothing per operation, so the measured loop's allocation
// count is the library's.
type opGen struct {
	rng     *rand.Rand
	next    int64
	backing [2 * nIdx]int
	idx     [][]int
	vals    [nIdx]float64
}

func newOpGen(seed uint64) *opGen {
	g := &opGen{rng: rand.New(rand.NewPCG(seed, 0x5eed)), idx: make([][]int, nIdx)}
	for i := range g.idx {
		g.idx[i] = g.backing[2*i : 2*i+2 : 2*i+2]
	}
	return g
}

// gen fills o with the next operation of the sequence.
func (g *opGen) gen(o *op) {
	r := g.rng.IntN(100)
	c := class(0)
	for r >= classWeights[c] {
		r -= classWeights[c]
		c++
	}
	*o = op{cls: c, id: g.next}
	g.next++
	switch c {
	case readLocal:
		i, j := g.rng.IntN(side-localSide+1), g.rng.IntN(side-localSide+1)
		o.lo, o.hi = [2]int{i, j}, [2]int{i + localSide, j + localSide}
	case gatherOp, scatterOp:
		for _, ix := range g.idx {
			ix[0], ix[1] = g.rng.IntN(side), g.rng.IntN(side)
		}
		o.idx = g.idx
		if c == scatterOp {
			for k := range g.vals {
				g.vals[k] = g.rng.Float64() * 100
			}
			o.vals = g.vals[:]
		}
	case writeDense:
		o.wbuf = g.rng.IntN(nWriteBufs)
	case redistOp:
		r0 := g.rng.IntN(side - bandRows + 1)
		o.lo, o.hi = [2]int{r0, 0}, [2]int{r0 + bandRows, side}
	}
}

// initialA and initialC are the arrays' contents after set-up.
func initialA(i, j int) float64 { return float64(i*side+j) * 0.5 }
func initialC(i, j int) float64 { return -float64(i*side + j) }

// mixState holds the access mix's two arrays, the benchmark-side shadow
// every write, scatter and redistribution updates, and the reusable
// result buffers every read is checked from.
type mixState struct {
	a, c         *core.Array
	metaA, metaC *darray.Meta
	shA, shC     []float64
	wbufs        [nWriteBufs][]float64
	dense        []float64
	small        []float64
	strided      []float64
	gathered     []float64
	zero, full   []int
	step         []int
}

// newMixState creates A (block,block on a 2x2 grid) and C (cyclic,*) on
// all four processors and fills both.
func newMixState(m *core.Machine) (*mixState, error) {
	a, err := m.NewArray(core.ArraySpec{Dims: []int{side, side}})
	if err != nil {
		return nil, fmt.Errorf("create A: %w", err)
	}
	c, err := m.NewArray(core.ArraySpec{Dims: []int{side, side}, Distrib: []grid.Decomp{grid.CyclicDefault(), grid.NoDecomp()}})
	if err != nil {
		return nil, fmt.Errorf("create C: %w", err)
	}
	if err := a.Fill(func(idx []int) float64 { return initialA(idx[0], idx[1]) }); err != nil {
		return nil, fmt.Errorf("fill A: %w", err)
	}
	if err := c.Fill(func(idx []int) float64 { return initialC(idx[0], idx[1]) }); err != nil {
		return nil, fmt.Errorf("fill C: %w", err)
	}
	return &mixState{a: a, c: c}, nil
}

// prepare readies a freshly set-up mixState for measurement: metadata,
// the shadow of the initial contents, the seeded write buffers and the
// result buffers. It is benchmark-side work, kept out of setup_s.
func (s *mixState) prepare(seed uint64) error {
	var err error
	if s.metaA, err = s.a.Meta(); err != nil {
		return err
	}
	if s.metaC, err = s.c.Meta(); err != nil {
		return err
	}
	s.shA = make([]float64, side*side)
	s.shC = make([]float64, side*side)
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			s.shA[i*side+j] = initialA(i, j)
			s.shC[i*side+j] = initialC(i, j)
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0xb0f))
	for k := range s.wbufs {
		s.wbufs[k] = make([]float64, side*side)
		for e := range s.wbufs[k] {
			s.wbufs[k][e] = rng.Float64() * 1000
		}
	}
	s.dense = make([]float64, side*side)
	s.small = make([]float64, localSide*localSide)
	s.strided = make([]float64, (side/strideStep)*(side/strideStep))
	s.gathered = make([]float64, nIdx)
	s.zero, s.full, s.step = []int{0, 0}, []int{side, side}, []int{strideStep, strideStep}
	return nil
}

// do issues one operation through the core API.
func (s *mixState) do(o *op) error {
	switch o.cls {
	case readDense:
		return s.a.ReadBlockInto(s.zero, s.full, s.dense)
	case readLocal:
		return s.a.ReadBlockInto(o.lo[:], o.hi[:], s.small)
	case readStrided:
		return s.a.ReadBlockStridedInto(s.zero, s.full, s.step, s.strided)
	case gatherOp:
		return s.a.GatherElementsInto(o.idx, s.gathered)
	case writeDense:
		return s.a.WriteBlock(s.zero, s.full, s.wbufs[o.wbuf])
	case scatterOp:
		return s.a.ScatterElements(o.idx, o.vals)
	case redistOp:
		return s.c.RedistributeFrom(s.a, o.lo[:], o.hi[:])
	}
	return fmt.Errorf("unknown class %d", o.cls)
}

// settle checks a completed read bit for bit against the shadow, or
// applies a completed write to the shadow. Its only errors are
// mismatches.
func (s *mixState) settle(o *op) error {
	switch o.cls {
	case readDense:
		return sameBits("read_dense A", o.id, s.dense, s.shA)
	case readLocal:
		for r := 0; r < localSide; r++ {
			at := (o.lo[0]+r)*side + o.lo[1]
			if err := sameBits("read_local A", o.id, s.small[r*localSide:(r+1)*localSide], s.shA[at:at+localSide]); err != nil {
				return err
			}
		}
	case readStrided:
		w := side / strideStep
		for i := 0; i < w; i++ {
			for j := 0; j < w; j++ {
				if math.Float64bits(s.strided[i*w+j]) != math.Float64bits(s.shA[i*strideStep*side+j*strideStep]) {
					return fmt.Errorf("op %d read_strided A: lattice point (%d,%d) = %v, want %v", o.id, i, j, s.strided[i*w+j], s.shA[i*strideStep*side+j*strideStep])
				}
			}
		}
	case gatherOp:
		for k, ix := range o.idx {
			if want := s.shA[ix[0]*side+ix[1]]; math.Float64bits(s.gathered[k]) != math.Float64bits(want) {
				return fmt.Errorf("op %d gather A: index %v = %v, want %v", o.id, ix, s.gathered[k], want)
			}
		}
	case writeDense:
		copy(s.shA, s.wbufs[o.wbuf])
	case scatterOp:
		for k, ix := range o.idx {
			s.shA[ix[0]*side+ix[1]] = o.vals[k]
		}
	case redistOp:
		copy(s.shC[o.lo[0]*side:o.hi[0]*side], s.shA[o.lo[0]*side:o.hi[0]*side])
	}
	return nil
}

// resync reloads the shadow from the arrays after a failed operation,
// whose effect on them is undefined.
func (s *mixState) resync() error {
	a, err := s.a.Snapshot()
	if err != nil {
		return err
	}
	c, err := s.c.Snapshot()
	if err != nil {
		return err
	}
	copy(s.shA, a)
	copy(s.shC, c)
	return nil
}

// finalCheck compares both arrays' final snapshots with the shadow.
func (s *mixState) finalCheck() error {
	a, err := s.a.Snapshot()
	if err != nil {
		return fmt.Errorf("final snapshot of A: %w", err)
	}
	if err := sameBits("final snapshot A", -1, a, s.shA); err != nil {
		return mismatch(err)
	}
	c, err := s.c.Snapshot()
	if err != nil {
		return fmt.Errorf("final snapshot of C: %w", err)
	}
	if err := sameBits("final snapshot C", -1, c, s.shC); err != nil {
		return mismatch(err)
	}
	return nil
}

// sameBits reports the first element where got and want differ bitwise.
func sameBits(what string, id int64, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("op %d %s: %d values, want %d", id, what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("op %d %s: element %d = %v, want %v", id, what, i, got[i], want[i])
		}
	}
	return nil
}

// replayer re-runs a sampled operation's inputs against the darray
// layer: the owner split the coordinator plans, and the owner-section
// copies the servers perform, on the sections this process hosts.
type replayer struct {
	secA, secC []*darray.Section // by processor; nil where not hosted here
	scratch    []float64
	plan       [nClasses][]float64 // us per sampled op
	copyUs     [nClasses][]float64 // us per sampled op, hosted sections only
	copyBytes  [nClasses][]float64 // bytes per sampled op, all owners (computed from the plan)
}

func newReplayer(m *core.Machine, s *mixState) (*replayer, error) {
	rp := &replayer{secA: make([]*darray.Section, m.P()), secC: make([]*darray.Section, m.P()), scratch: make([]float64, side*side)}
	router := m.VM.Router()
	for p := 0; p < m.P(); p++ {
		if !router.Local(p) {
			continue
		}
		sec, st := m.AM.FindLocal(p, s.a.ID())
		if st != arraymgr.StatusOK {
			return nil, fmt.Errorf("find_local A on %d: %v", p, st)
		}
		rp.secA[p] = sec
		if sec, st = m.AM.FindLocal(p, s.c.ID()); st != arraymgr.StatusOK {
			return nil, fmt.Errorf("find_local C on %d: %v", p, st)
		}
		rp.secC[p] = sec
	}
	return rp, nil
}

// latticeCount is the number of lattice points in [lo, hi) with step
// (nil step: dense).
func latticeCount(lo, hi, step []int) int {
	n := 1
	for i := range lo {
		st := 1
		if step != nil {
			st = step[i]
		}
		n *= (hi[i] - lo[i] + st - 1) / st
	}
	return n
}

// replay plans and copies o's inputs once, recording one span for the
// plan and one per section copy, all carrying o's id.
func (rp *replayer) replay(s *mixState, o *op, tr *tracer) error {
	var (
		blocks []darray.OwnerBlock
		sets   []darray.OwnerIndexSet
		sched  *darray.Schedule
		err    error
		step   []int
	)
	t0 := time.Now()
	switch o.cls {
	case readDense, writeDense:
		blocks, err = s.metaA.OwnerBlocks(s.zero, s.full)
	case readLocal:
		blocks, err = s.metaA.OwnerBlocks(o.lo[:], o.hi[:])
	case readStrided:
		step = s.step
		blocks, err = s.metaA.OwnerBlocksStrided(s.zero, s.full, s.step)
	case gatherOp, scatterOp:
		sets, err = s.metaA.OwnerIndices(o.idx)
	case redistOp:
		sched, err = s.metaC.TransferSchedule(s.metaA, o.lo[:], o.lo[:], []int{bandRows, side}, nil)
	}
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("replay plan of op %d: %w", o.id, err)
	}
	tr.add("darray.plan."+classNames[o.cls], o.id, 2, t0, t1)
	rp.plan[o.cls] = append(rp.plan[o.cls], us(t1.Sub(t0)))

	var copied time.Duration
	bytes := 0
	timed := func(f func() error) error {
		c0 := time.Now()
		err := f()
		c1 := time.Now()
		copied += c1.Sub(c0)
		tr.add("darray.copy."+classNames[o.cls], o.id, 2, c0, c1)
		return err
	}
	ma := s.metaA
	for _, b := range blocks {
		n := latticeCount(b.GlobalLo, b.GlobalHi, step)
		bytes += 8 * n
		sec := rp.secA[b.Proc]
		if sec == nil {
			continue
		}
		buf := rp.scratch[:n]
		switch o.cls {
		case readDense, readLocal:
			err = timed(func() error {
				return sec.ReadBlockInto(buf, b.LocalLo, b.LocalHi, ma.LocalDims, ma.Borders, ma.Indexing)
			})
		case readStrided:
			err = timed(func() error {
				return sec.ReadBlockStridedInto(buf, b.LocalLo, b.LocalHi, step, ma.LocalDims, ma.Borders, ma.Indexing)
			})
		case writeDense:
			// Rewrite the values the operation just stored: the replay
			// leaves the array as it found it.
			src := s.wbufs[o.wbuf]
			k := 0
			for i := b.GlobalLo[0]; i < b.GlobalHi[0]; i++ {
				k += copy(buf[k:], src[i*side+b.GlobalLo[1]:i*side+b.GlobalHi[1]])
			}
			err = timed(func() error { return sec.WriteBlock(buf, b.LocalLo, b.LocalHi, ma.LocalDims, ma.Borders, ma.Indexing) })
		}
		if err != nil {
			return fmt.Errorf("replay copy of op %d: %w", o.id, err)
		}
	}
	for _, set := range sets {
		bytes += 8 * len(set.Offs)
		sec := rp.secA[set.Proc]
		if sec == nil {
			continue
		}
		buf := rp.scratch[:len(set.Offs)]
		if o.cls == gatherOp {
			err = timed(func() error { return sec.GatherInto(buf, set.Offs) })
		} else {
			for k, pos := range set.Pos {
				buf[k] = o.vals[pos]
			}
			err = timed(func() error { return sec.ScatterFrom(buf, set.Offs) })
		}
		if err != nil {
			return fmt.Errorf("replay copy of op %d: %w", o.id, err)
		}
	}
	if sched != nil {
		for _, pb := range sched.Blocks {
			bytes += 8 * latticeCount(pb.SrcLo, pb.SrcHi, sched.Step)
			dst, src := rp.secC[pb.DstProc], rp.secA[pb.SrcProc]
			if dst == nil || src == nil {
				continue
			}
			if err = timed(func() error {
				return darray.CopyRect(dst, s.metaC, pb.DstLo, src, s.metaA, pb.SrcLo, pb.SrcHi, sched.Step)
			}); err != nil {
				return fmt.Errorf("replay copy of op %d: %w", o.id, err)
			}
		}
		for _, ps := range sched.Sets {
			bytes += 8 * len(ps.SrcOffs)
			dst, src := rp.secC[ps.DstProc], rp.secA[ps.SrcProc]
			if dst == nil || src == nil {
				continue
			}
			if err = timed(func() error { return darray.CopyOffsets(dst, src, ps.DstOffs, ps.SrcOffs) }); err != nil {
				return fmt.Errorf("replay copy of op %d: %w", o.id, err)
			}
		}
	}
	rp.copyUs[o.cls] = append(rp.copyUs[o.cls], us(copied))
	rp.copyBytes[o.cls] = append(rp.copyBytes[o.cls], float64(bytes))
	return nil
}

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
