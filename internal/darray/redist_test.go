package darray

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/grid"
)

// The transfer-schedule property harness: whatever pair of layouts the
// schedule spans, applying its pieces with the owner-side copy kernels
// must land every lattice point of the source rectangle at its
// destination position, and touch nothing else.

// sectionsFor allocates one local section per processor of the array.
func sectionsFor(m *Meta) map[int]*Section {
	out := make(map[int]*Section, len(m.Procs))
	for _, p := range m.Procs {
		out[p] = NewSection(m.Type, m.LocalStorageSize())
	}
	return out
}

// fillGlobal writes encode(g) to every global index of the array.
func fillGlobal(t *testing.T, m *Meta, secs map[int]*Section, encode func([]int) float64) {
	t.Helper()
	strides := grid.Strides(m.LocalDimsPlus, m.Indexing)
	idx := make([]int, m.NDims())
	var walk func(d int)
	walk = func(d int) {
		if d == len(idx) {
			slot, off, ok := m.ResolveIndex(idx, strides)
			if !ok {
				t.Fatalf("unresolvable index %v", idx)
			}
			secs[m.Procs[slot]].SetFloat(off, encode(idx))
			return
		}
		for i := 0; i < m.Dims[d]; i++ {
			idx[d] = i
			walk(d + 1)
		}
	}
	walk(0)
}

// applySchedule runs every pair of the schedule through the owner-side
// copy kernels, exactly as the redistribution plane's same-process pairs
// and shipped pieces do.
func applySchedule(t *testing.T, sched *Schedule, dst *Meta, dstSecs map[int]*Section, src *Meta, srcSecs map[int]*Section) {
	t.Helper()
	for _, pb := range sched.Blocks {
		err := CopyRect(dstSecs[pb.DstProc], dst, pb.DstLo, srcSecs[pb.SrcProc], src, pb.SrcLo, pb.SrcHi, sched.Step)
		if err != nil {
			t.Fatalf("CopyRect(%+v): %v", pb, err)
		}
	}
	for _, ps := range sched.Sets {
		if len(ps.SrcOffs) == 0 || len(ps.SrcOffs) != len(ps.DstOffs) {
			t.Fatalf("malformed pair set: %d src offsets, %d dst offsets", len(ps.SrcOffs), len(ps.DstOffs))
		}
		if err := CopyOffsets(dstSecs[ps.DstProc], srcSecs[ps.SrcProc], ps.DstOffs, ps.SrcOffs); err != nil {
			t.Fatalf("CopyOffsets: %v", err)
		}
	}
}

// redistLayouts is the layout sweep of the schedule tests: all three
// distribution kinds, uneven trailing blocks, subset/star dimensions and
// both indexing orders appear.
func redistLayouts(t *testing.T, dims []int) map[string]*Meta {
	t.Helper()
	switch len(dims) {
	case 1:
		return map[string]*Meta{
			"block":       metaForDist(t, dims, []int{4}, []grid.Decomp{grid.BlockDefault()}, []int{0, 0}, grid.RowMajor),
			"cyclic":      metaForDist(t, dims, []int{4}, []grid.Decomp{grid.CyclicDefault()}, []int{0, 0}, grid.RowMajor),
			"blockcyclic": metaForDist(t, dims, []int{3}, []grid.Decomp{grid.BlockCyclicOf(3)}, []int{1, 2}, grid.RowMajor),
		}
	case 2:
		return map[string]*Meta{
			"block-star": metaForDist(t, dims, []int{4, 1},
				[]grid.Decomp{grid.BlockOf(4), grid.NoDecomp()}, []int{0, 0, 0, 0}, grid.RowMajor),
			"star-cyclic": metaForDist(t, dims, []int{1, 3},
				[]grid.Decomp{grid.NoDecomp(), grid.CyclicOf(3)}, []int{0, 0, 0, 0}, grid.ColMajor),
			"cyclic-block": metaForDist(t, dims, []int{2, 2},
				[]grid.Decomp{grid.CyclicOf(2), grid.BlockOf(2)}, []int{1, 0, 0, 1}, grid.RowMajor),
			"blockcyclic-block": metaForDist(t, dims, []int{3, 2},
				[]grid.Decomp{grid.BlockCyclicOf(2), grid.BlockOf(2)}, []int{0, 0, 0, 0}, grid.RowMajor),
		}
	default:
		t.Fatalf("unsupported rank %d", len(dims))
		return nil
	}
}

// TestTransferScheduleCompleteness drives every ordered pair of layouts
// (regular×regular through the block path, every other mix through the
// offset-set path) with random dense and strided rectangles and checks
// element-for-element delivery.
func TestTransferScheduleCompleteness(t *testing.T) {
	for _, dims := range [][]int{{29}, {11, 10}} {
		encode := func(g []int) float64 {
			v := 1.0
			for i := range g {
				v = v*64 + float64(g[i])
			}
			return v
		}
		layouts := redistLayouts(t, dims)
		rng := rand.New(rand.NewSource(int64(len(dims))))
		for sname, src := range layouts {
			for dname, dst := range layouts {
				for trial := 0; trial < 6; trial++ {
					// A random lattice that fits both arrays at independent
					// random origins.
					n := len(dims)
					cnt := make([]int, n)
					srcLo := make([]int, n)
					dstLo := make([]int, n)
					step := make([]int, n)
					strided := trial%2 == 1
					for i := 0; i < n; i++ {
						step[i] = 1
						if strided {
							step[i] = 1 + rng.Intn(3)
						}
						maxSpan := dims[i] // both arrays share global dims here
						cnt[i] = 1 + rng.Intn((maxSpan-1)/step[i]+1)
						span := (cnt[i]-1)*step[i] + 1
						srcLo[i] = rng.Intn(dims[i] - span + 1)
						dstLo[i] = rng.Intn(dims[i] - span + 1)
					}
					// TransferSchedule takes dims as lattice extents, not
					// point counts: extent = (cnt-1)*step + 1 rounded to the
					// request convention hi-lo.
					ext := make([]int, n)
					for i := 0; i < n; i++ {
						ext[i] = (cnt[i]-1)*step[i] + 1
					}
					var stepArg []int
					if strided {
						stepArg = step
					}
					sched, err := dst.TransferSchedule(src, dstLo, srcLo, ext, stepArg)
					if err != nil {
						t.Fatalf("%s->%s: TransferSchedule: %v", sname, dname, err)
					}
					if src.Regular() && dst.Regular() {
						if len(sched.Sets) != 0 {
							t.Fatalf("%s->%s: regular pair produced %d offset sets", sname, dname, len(sched.Sets))
						}
					} else if len(sched.Blocks) != 0 {
						t.Fatalf("%s->%s: irregular pair produced %d blocks", sname, dname, len(sched.Blocks))
					}
					srcSecs := sectionsFor(src)
					dstSecs := sectionsFor(dst)
					fillGlobal(t, src, srcSecs, encode)
					for _, s := range dstSecs {
						for i := 0; i < s.Len(); i++ {
							s.SetFloat(i, -1)
						}
					}
					applySchedule(t, sched, dst, dstSecs, src, srcSecs)
					// Every lattice point must have landed; everything else
					// must still be the sentinel.
					want := make(map[int]map[int]float64) // proc -> off -> value
					dStrides := grid.Strides(dst.LocalDimsPlus, dst.Indexing)
					gSrc := make([]int, n)
					gDst := make([]int, n)
					zero := make([]int, n)
					err = grid.ForEachStridedRect(zero, ext, step, func(off []int, _ int) error {
						for i := range off {
							gSrc[i] = srcLo[i] + off[i]
							gDst[i] = dstLo[i] + off[i]
						}
						slot, o, ok := dst.ResolveIndex(gDst, dStrides)
						if !ok {
							t.Fatalf("unresolvable destination %v", gDst)
						}
						p := dst.Procs[slot]
						if want[p] == nil {
							want[p] = make(map[int]float64)
						}
						want[p][o] = encode(gSrc)
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					for p, s := range dstSecs {
						for off := 0; off < s.Len(); off++ {
							v := s.GetFloat(off)
							if w, hit := want[p][off]; hit {
								if v != w {
									t.Fatalf("%s->%s trial %d: proc %d off %d = %v, want %v", sname, dname, trial, p, off, v, w)
								}
							} else if v != -1 {
								t.Fatalf("%s->%s trial %d: proc %d off %d clobbered to %v", sname, dname, trial, p, off, v)
							}
						}
					}
				}
			}
		}
	}
}

// TestTransferScheduleErrors pins schedule validation: rank mismatches
// and out-of-bounds rectangles are rejected.
func TestTransferScheduleErrors(t *testing.T) {
	a := metaForDist(t, []int{16}, []int{4}, []grid.Decomp{grid.BlockDefault()}, []int{0, 0}, grid.RowMajor)
	b := metaForDist(t, []int{16, 4}, []int{4, 1},
		[]grid.Decomp{grid.BlockDefault(), grid.NoDecomp()}, []int{0, 0, 0, 0}, grid.RowMajor)
	if _, err := a.TransferSchedule(b, []int{0}, []int{0, 0}, []int{4}, nil); err == nil {
		t.Error("rank mismatch accepted")
	}
	if _, err := a.TransferSchedule(a, []int{8}, []int{0}, []int{12}, nil); err == nil {
		t.Error("destination rectangle past the extent accepted")
	}
	if _, err := a.TransferSchedule(a, []int{0}, []int{0}, []int{8}, []int{0}); err == nil {
		t.Error("zero step accepted")
	}
}

// TestStridedSharesMatchOwnerLattice checks the descriptor split against
// the materialized offset sets point for point: enumerating each share's
// local lattice and placement must reproduce exactly the (proc, offset,
// position) triples OwnerLattice produces.
func TestStridedSharesMatchOwnerLattice(t *testing.T) {
	for name, m := range distMetas(t, grid.RowMajor) {
		blockCyclic := false
		for i, d := range m.ResolvedDists() {
			if d.Kind == grid.DistBlockCyclic && m.GridDims[i] > 1 && d.B > 1 {
				blockCyclic = true
			}
		}
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 8; trial++ {
			lo, hi, step := randomDistRect(rng, m.Dims)
			var stepArg []int
			if trial%2 == 1 {
				stepArg = step
			}
			shares, ok, err := m.StridedShares(lo, hi, stepArg)
			if err != nil {
				t.Fatalf("%s: StridedShares(%v,%v,%v): %v", name, lo, hi, stepArg, err)
			}
			if blockCyclic {
				if ok {
					t.Fatalf("%s: block-cyclic layout reported descriptor-eligible", name)
				}
				continue
			}
			if !ok {
				t.Fatalf("%s: progression layout reported ineligible", name)
			}
			sets, err := m.OwnerLattice(lo, hi, stepArg)
			if err != nil {
				t.Fatal(err)
			}
			want := make(map[int]map[int]int) // proc -> position -> offset
			for _, s := range sets {
				pm := make(map[int]int, len(s.Offs))
				for i, off := range s.Offs {
					pm[s.Pos[i]] = off
				}
				want[s.Proc] = pm
			}
			sdims := grid.RectDims(lo, hi)
			if stepArg != nil {
				sdims = grid.StridedRectDims(lo, hi, stepArg)
			}
			got := make(map[int]map[int]int)
			strides := grid.Strides(m.LocalDimsPlus, m.Indexing)
			n := m.NDims()
			for _, sh := range shares {
				pm := got[sh.Proc]
				if pm == nil {
					pm = make(map[int]int)
					got[sh.Proc] = pm
				}
				cnt := make([]int, n)
				for i := 0; i < n; i++ {
					cnt[i] = (sh.Hi[i] - sh.Lo[i] + sh.Step[i] - 1) / sh.Step[i]
				}
				zero := make([]int, n)
				lidx := make([]int, n)
				pidx := make([]int, n)
				err := grid.ForEachRect(zero, cnt, func(idx []int, _ int) error {
					off := 0
					for i := range idx {
						lidx[i] = sh.Lo[i] + idx[i]*sh.Step[i]
						pidx[i] = sh.PosLo[i] + idx[i]*sh.PosStep[i]
						off += (lidx[i] + m.Borders[2*i]) * strides[i]
					}
					pos, err := grid.Flatten(pidx, sdims, grid.RowMajor)
					if err != nil {
						return err
					}
					if old, dup := pm[pos]; dup {
						t.Fatalf("%s: position %d claimed twice (offsets %d, %d)", name, pos, old, off)
					}
					pm[pos] = off
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			for proc, pm := range want {
				gm := got[proc]
				if len(gm) != len(pm) {
					t.Fatalf("%s: proc %d holds %d positions via shares, %d via offset sets", name, proc, len(gm), len(pm))
				}
				for pos, off := range pm {
					if gm[pos] != off {
						t.Fatalf("%s: proc %d position %d -> offset %d via shares, %d via offset sets", name, proc, pos, gm[pos], off)
					}
				}
			}
			for proc := range got {
				if _, okp := want[proc]; !okp && len(got[proc]) > 0 {
					t.Fatalf("%s: shares invented holdings on proc %d", name, proc)
				}
			}
		}
	}
}

// TestCopyRectConverts exercises the allocating >MaxFastDims dispatch
// indirectly by crossing element types and indexing orders through the
// fast path (conversion and non-contiguous walks).
func TestCopyRectConverts(t *testing.T) {
	src := metaForDist(t, []int{6, 4}, []int{1, 1},
		[]grid.Decomp{grid.NoDecomp(), grid.NoDecomp()}, []int{0, 0, 0, 0}, grid.RowMajor)
	dst := metaForDist(t, []int{6, 4}, []int{1, 1},
		[]grid.Decomp{grid.NoDecomp(), grid.NoDecomp()}, []int{1, 1, 0, 0}, grid.ColMajor)
	dst.Type = Int
	s := NewSection(Double, src.LocalStorageSize())
	d := NewSection(Int, dst.LocalStorageSize())
	for i := 0; i < s.Len(); i++ {
		s.SetFloat(i, float64(i)+0.5)
	}
	if err := CopyRect(d, dst, []int{1, 0}, s, src, []int{0, 1}, []int{5, 4}, []int{2, 1}); err != nil {
		t.Fatal(err)
	}
	strides := grid.Strides(dst.LocalDimsPlus, dst.Indexing)
	sStrides := grid.Strides(src.LocalDimsPlus, src.Indexing)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			sOff := (2*r)*sStrides[0] + (1+c)*sStrides[1]
			dOff := (1+2*r+dst.Borders[0])*strides[0] + c*strides[1]
			want := float64(int64(s.GetFloat(sOff))) // Int storage truncates
			if got := d.GetFloat(dOff); got != want {
				t.Fatalf("dst[%d,%d] = %v, want %v", 1+2*r, c, got, want)
			}
		}
	}
}

// TestCopyOffsetsBounds pins the kernel's bounds checks.
func TestCopyOffsetsBounds(t *testing.T) {
	a := NewSection(Double, 4)
	b := NewSection(Double, 4)
	if err := CopyOffsets(a, b, []int{0}, []int{4}); err == nil {
		t.Error("source offset out of bounds accepted")
	}
	if err := CopyOffsets(a, b, []int{-1}, []int{0}); err == nil {
		t.Error("negative destination offset accepted")
	}
	if err := CopyOffsets(a, b, []int{0, 1}, []int{0}); err == nil {
		t.Error("length mismatch accepted")
	}
}

// randomDistRect draws a random rectangle plus step fitting dims.
func randomDistRect(rng *rand.Rand, dims []int) (lo, hi, step []int) {
	lo = make([]int, len(dims))
	hi = make([]int, len(dims))
	step = make([]int, len(dims))
	for i, d := range dims {
		lo[i] = rng.Intn(d)
		hi[i] = lo[i] + 1 + rng.Intn(d-lo[i])
		step[i] = 1 + rng.Intn(3)
	}
	return lo, hi, step
}

// referenceTransferSchedule is the transfer planner TransferSchedule
// replaced, kept as the differential reference: regular×regular pairs
// intersect the two rectangle owner splits block by block, and every
// other mix resolves each lattice point on both sides (ResolveIndex) and
// buckets the points by owner pair.
func referenceTransferSchedule(dst, src *Meta, dstLo, srcLo, dims, step []int) (*Schedule, error) {
	n := dst.NDims()
	srcHi := make([]int, n)
	dstHi := make([]int, n)
	for i := 0; i < n; i++ {
		srcHi[i] = srcLo[i] + dims[i]
		dstHi[i] = dstLo[i] + dims[i]
	}
	sched := &Schedule{}
	if step != nil {
		sched.Step = append([]int(nil), step...)
	}
	var err error
	if src.Regular() && dst.Regular() {
		var sBlocks, dBlocks []OwnerBlock
		if step == nil {
			sBlocks, err = src.OwnerBlocks(srcLo, srcHi)
		} else {
			sBlocks, err = src.OwnerBlocksStrided(srcLo, srcHi, step)
		}
		if err != nil {
			return nil, err
		}
		if step == nil {
			dBlocks, err = dst.OwnerBlocks(dstLo, dstHi)
		} else {
			dBlocks, err = dst.OwnerBlocksStrided(dstLo, dstHi, step)
		}
		if err != nil {
			return nil, err
		}
		aLo := make([]int, n)
		aHi := make([]int, n)
		bLo := make([]int, n)
		bHi := make([]int, n)
		for _, sb := range sBlocks {
			for i := 0; i < n; i++ {
				aLo[i] = sb.GlobalLo[i] - srcLo[i]
				aHi[i] = sb.GlobalHi[i] - srcLo[i]
			}
			for _, db := range dBlocks {
				for i := 0; i < n; i++ {
					bLo[i] = db.GlobalLo[i] - dstLo[i]
					bHi[i] = db.GlobalHi[i] - dstLo[i]
				}
				var olo, ohi []int
				var ok bool
				if step == nil {
					olo, ohi, ok = grid.IntersectRect(aLo, aHi, bLo, bHi)
				} else {
					olo, ohi, ok = grid.IntersectStridedRect(aLo, aHi, step, bLo, bHi)
				}
				if !ok {
					continue
				}
				pb := PairBlock{
					SrcProc: sb.Proc, DstProc: db.Proc,
					SrcSlot: sb.Slot, DstSlot: db.Slot,
					SrcLo: make([]int, n), SrcHi: make([]int, n),
					DstLo: make([]int, n), DstHi: make([]int, n),
				}
				for i := 0; i < n; i++ {
					pb.SrcLo[i] = sb.LocalLo[i] + olo[i] - aLo[i]
					pb.SrcHi[i] = sb.LocalLo[i] + ohi[i] - aLo[i]
					pb.DstLo[i] = db.LocalLo[i] + olo[i] - bLo[i]
					pb.DstHi[i] = db.LocalLo[i] + ohi[i] - bLo[i]
				}
				sched.Blocks = append(sched.Blocks, pb)
			}
		}
		return sched, nil
	}
	srcStrides := grid.Strides(src.LocalDimsPlus, src.Indexing)
	dstStrides := grid.Strides(dst.LocalDimsPlus, dst.Indexing)
	srcIdx := make([]int, n)
	dstIdx := make([]int, n)
	type pairKey struct{ s, d int }
	byPair := make(map[pairKey]int)
	visit := func(off []int, _ int) error {
		for i := range off {
			srcIdx[i] = srcLo[i] + off[i]
			dstIdx[i] = dstLo[i] + off[i]
		}
		sSlot, sOff, ok := src.ResolveIndex(srcIdx, srcStrides)
		if !ok {
			return fmt.Errorf("unresolvable source index %v", srcIdx)
		}
		dSlot, dOff, ok := dst.ResolveIndex(dstIdx, dstStrides)
		if !ok {
			return fmt.Errorf("unresolvable destination index %v", dstIdx)
		}
		k := pairKey{sSlot, dSlot}
		pi, seen := byPair[k]
		if !seen {
			pi = len(sched.Sets)
			byPair[k] = pi
			sched.Sets = append(sched.Sets, PairSet{
				SrcProc: src.Procs[sSlot], DstProc: dst.Procs[dSlot],
				SrcSlot: sSlot, DstSlot: dSlot,
			})
		}
		ps := &sched.Sets[pi]
		ps.SrcOffs = append(ps.SrcOffs, sOff)
		ps.DstOffs = append(ps.DstOffs, dOff)
		return nil
	}
	zero := make([]int, n)
	if step == nil {
		err = grid.ForEachRect(zero, dims, visit)
	} else {
		err = grid.ForEachStridedRect(zero, dims, step, visit)
	}
	if err != nil {
		return nil, err
	}
	return sched, nil
}

// diffLayouts widens redistLayouts for the differential test: uneven
// trailing blocks with borders, column-major storage and grid order,
// cyclic in every dimension, and block-cyclic dimensions both over
// several cells (the per-point fallback) and over one.
func diffLayouts(t *testing.T, dims []int) map[string]*Meta {
	t.Helper()
	out := redistLayouts(t, dims)
	switch len(dims) {
	case 1:
		out["block3-bordered"] = metaForDist(t, dims, []int{3}, []grid.Decomp{grid.BlockDefault()}, []int{2, 1}, grid.RowMajor)
		out["cyclic3-colmajor"] = metaForDist(t, dims, []int{3}, []grid.Decomp{grid.CyclicDefault()}, []int{1, 0}, grid.ColMajor)
		out["blockcyclic-onecell"] = metaForDist(t, dims, []int{1}, []grid.Decomp{grid.BlockCyclicOf(4)}, []int{0, 1}, grid.RowMajor)
	case 2:
		out["block-block-colmajor"] = metaForDist(t, dims, []int{2, 3},
			[]grid.Decomp{grid.BlockOf(2), grid.BlockOf(3)}, []int{1, 2, 0, 1}, grid.ColMajor)
		out["cyclic-cyclic"] = metaForDist(t, dims, []int{2, 3},
			[]grid.Decomp{grid.CyclicOf(2), grid.CyclicOf(3)}, []int{0, 1, 1, 0}, grid.RowMajor)
		out["block-cyclic-colmajor"] = metaForDist(t, dims, []int{3, 2},
			[]grid.Decomp{grid.BlockOf(3), grid.CyclicOf(2)}, []int{0, 0, 2, 0}, grid.ColMajor)
	}
	return out
}

// TestTransferScheduleMatchesReference is the differential pin of the
// closed-form planner: for every ordered pair of layouts, over random
// dense and strided lattices at independent origins in arrays of
// different extents, TransferSchedule must return exactly the schedule
// the reference planner does — same form, same pair order, same bounds,
// same offsets in the same order.
func TestTransferScheduleMatchesReference(t *testing.T) {
	for _, shapes := range [][2][]int{{{29}, {23}}, {{11, 10}, {9, 13}}} {
		srcLayouts := diffLayouts(t, shapes[0])
		dstLayouts := diffLayouts(t, shapes[1])
		n := len(shapes[0])
		rng := rand.New(rand.NewSource(int64(100 + n)))
		for sname, src := range srcLayouts {
			for dname, dst := range dstLayouts {
				for trial := 0; trial < 12; trial++ {
					srcLo := make([]int, n)
					dstLo := make([]int, n)
					ext := make([]int, n)
					step := make([]int, n)
					for i := 0; i < n; i++ {
						room := min(src.Dims[i], dst.Dims[i])
						step[i] = 1
						if trial%2 == 1 {
							step[i] = 1 + rng.Intn(4)
						}
						ext[i] = 1 + rng.Intn(room)
						if trial == 0 {
							ext[i] = room
						}
						srcLo[i] = rng.Intn(src.Dims[i] - ext[i] + 1)
						dstLo[i] = rng.Intn(dst.Dims[i] - ext[i] + 1)
					}
					var stepArg []int
					if trial%2 == 1 {
						stepArg = step
					}
					got, err := dst.TransferSchedule(src, dstLo, srcLo, ext, stepArg)
					if err != nil {
						t.Fatalf("%s->%s: TransferSchedule(%v,%v,%v,%v): %v", sname, dname, dstLo, srcLo, ext, stepArg, err)
					}
					want, err := referenceTransferSchedule(dst, src, dstLo, srcLo, ext, stepArg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s->%s (dstLo %v srcLo %v ext %v step %v):\n got  %+v\n want %+v",
							sname, dname, dstLo, srcLo, ext, stepArg, got, want)
					}
				}
			}
		}
	}
}

// bandMetas are the access benchmark's redistribution operands: a
// 128x128 (block, block) array on a 2x2 grid and a (cyclic, *) array on
// 4 processors.
func bandMetas(tb testing.TB) (src, dst *Meta) {
	src = metaForDist(tb, []int{128, 128}, []int{2, 2},
		[]grid.Decomp{grid.BlockDefault(), grid.BlockDefault()}, []int{0, 0, 0, 0}, grid.RowMajor)
	dst = metaForDist(tb, []int{128, 128}, []int{4, 1},
		[]grid.Decomp{grid.CyclicDefault(), grid.NoDecomp()}, []int{0, 0, 0, 0}, grid.RowMajor)
	return src, dst
}

// bandLo places the 16-row band across the source's row-block boundary,
// the widest schedule the band can produce (16 owner pairs).
var bandLo, bandDims = []int{56, 0}, []int{16, 128}

// TestTransferScheduleAllocs pins the plan of the 16x128 block→cyclic
// band to the closed-form path's allocation profile: a regression to
// per-point planning (171 allocations) fails here.
func TestTransferScheduleAllocs(t *testing.T) {
	src, dst := bandMetas(t)
	var sched *Schedule
	allocs := testing.AllocsPerRun(50, func() {
		var err error
		if sched, err = dst.TransferSchedule(src, bandLo, bandLo, bandDims, nil); err != nil {
			t.Fatal(err)
		}
	})
	if sched.NPairs() != 16 {
		t.Fatalf("band schedule has %d pairs, want 16", sched.NPairs())
	}
	if allocs > 70 {
		t.Fatalf("band TransferSchedule: %.0f allocs/op, want <= 70", allocs)
	}
}

// BenchmarkTransferSchedule plans the 16x128 block→cyclic band on 4
// processors.
func BenchmarkTransferSchedule(b *testing.B) {
	src, dst := bandMetas(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := dst.TransferSchedule(src, bandLo, bandLo, bandDims, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzIntersectProgressions checks the closed-form progression
// intersection against brute-force enumeration: emptiness, the first
// common point, the period (lcm of the two) and the count.
func FuzzIntersectProgressions(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(10), uint8(3), uint8(4), uint8(5))
	f.Add(uint8(2), uint8(6), uint8(7), uint8(5), uint8(4), uint8(9))
	f.Add(uint8(1), uint8(2), uint8(5), uint8(0), uint8(2), uint8(5))
	f.Add(uint8(9), uint8(3), uint8(0), uint8(0), uint8(1), uint8(30))
	f.Fuzz(func(t *testing.T, a, pa, na, b, pb, nb uint8) {
		ia, ipa, ina := int(a), 1+int(pa%16), int(na%40)
		ib, ipb, inb := int(b), 1+int(pb%16), int(nb%40)
		first, period, count := intersectProgressions(ia, ipa, ina, ib, ipb, inb)
		if want := ipa / gcd(ipa, ipb) * ipb; period != want {
			t.Fatalf("period %d, want lcm(%d,%d) = %d", period, ipa, ipb, want)
		}
		inB := make(map[int]bool, inb)
		for u := 0; u < inb; u++ {
			inB[ib+u*ipb] = true
		}
		var common []int
		for s := 0; s < ina; s++ {
			if x := ia + s*ipa; inB[x] {
				common = append(common, x)
			}
		}
		if count != len(common) {
			t.Fatalf("(%d+t*%d, t<%d) ∩ (%d+u*%d, u<%d): count %d, brute force %d %v",
				ia, ipa, ina, ib, ipb, inb, count, len(common), common)
		}
		for v, x := range common {
			if got := first + v*period; got != x {
				t.Fatalf("(%d+t*%d, t<%d) ∩ (%d+u*%d, u<%d): point %d is %d, brute force %d",
					ia, ipa, ina, ib, ipb, inb, v, got, x)
			}
		}
	})
}
