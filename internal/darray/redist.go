// The redistribution schedule: planning direct owner↔owner transfers
// between two distributed arrays. Phase-changing algorithms (a block LU
// panel feeding a cyclic solve, a transpose between FFT stages) move a
// rectangle from one array to another with a different distribution;
// the schedule computed here is the set of non-empty src-owner/dst-owner
// intersections of that rectangle, each translated to interior-local
// coordinates on both sides, so a coordinator can ship every piece
// owner-to-owner in one message instead of bouncing the whole rectangle
// through a single client process.
//
// This file also holds the owner-side copy kernels the redistribution
// plane runs on (CopyRect, CopyOffsets) and the bounds+step owner split
// (StridedShares) that replaces materialized offset vectors on the
// cyclic rectangle path.
package darray

import (
	"fmt"
	"slices"

	"repro/internal/grid"
)

// PairBlock is one regular piece of a transfer schedule: the lattice
// points held by SrcProc on the source array and DstProc on the
// destination, as matching strided local rectangles on both sides (the
// shared step lives on the Schedule). Row-major enumeration of
// (SrcLo, SrcHi) and (DstLo, DstHi) visits corresponding elements in
// the same order, so the piece moves with one packed buffer.
type PairBlock struct {
	SrcProc, DstProc int
	SrcSlot, DstSlot int   // grid slots of the two owning sections
	SrcLo, SrcHi     []int // interior-local strided bounds at the source owner
	DstLo, DstHi     []int // the same lattice at the destination owner
}

// PairSet is one irregular piece of a transfer schedule: the lattice
// points held by SrcProc on the source array and DstProc on the
// destination, as paired border-displaced storage offsets — element
// SrcOffs[i] of the source section moves to element DstOffs[i] of the
// destination section.
type PairSet struct {
	SrcProc, DstProc int
	SrcSlot, DstSlot int // grid slots of the two owning sections
	SrcOffs, DstOffs []int
}

// Schedule is an owner-pair transfer schedule produced by
// TransferSchedule. Every lattice point of the transferred rectangle
// appears in exactly one pair (a Block when both arrays are Regular, a
// Set otherwise), so shipping each pair once moves the whole rectangle:
// the ≤1-message-per-owner-pair budget of the redistribution plane.
type Schedule struct {
	Blocks []PairBlock
	Sets   []PairSet
	Step   []int // shared lattice step of the Blocks; nil = dense
}

// NPairs returns the number of non-empty owner pairs in the schedule.
func (s *Schedule) NPairs() int { return len(s.Blocks) + len(s.Sets) }

// TransferSchedule computes the owner-pair intersection schedule for
// copying a lattice of elements from array src onto array dst: lattice
// offset j (componentwise 0 <= j < dims, every step[i]-th per
// dimension; step nil = dense) moves source element srcLo+j to
// destination element dstLo+j.
//
// The plan is closed-form. Each side's rectangle splits by owner into
// per-dimension arithmetic progressions on the request lattice (the
// decomposition behind StridedShares), and every source progression of a
// dimension is intersected with every destination progression of that
// dimension (intersectProgressions: gcd and the Chinese remainder
// theorem). An owner pair's piece is the product over dimensions of one
// such intersection each, with its own source-side and destination-side
// local progressions, so no lattice point is resolved on its own. When
// both arrays are Regular the pieces are matching strided local
// rectangles (Blocks: source owners in row-major cell order, each
// followed by its destination owners in the same order); otherwise each
// piece expands straight into paired storage offsets (Sets: pairs in
// order of first appearance in row-major lattice order, offsets in
// lattice order). A block-cyclic dimension of width > 1 over several
// cells has no progression form; such schedules fall back to resolving
// every lattice point on both sides (ResolveIndex), with the same Set
// ordering. Ranks must match and both rectangles are validated against
// their arrays; element types may differ (values convert on write).
func (dst *Meta) TransferSchedule(src *Meta, dstLo, srcLo, dims, step []int) (*Schedule, error) {
	n := dst.NDims()
	if src.NDims() != n || len(dstLo) != n || len(srcLo) != n || len(dims) != n {
		return nil, fmt.Errorf("darray: transfer schedule rank mismatch: dst %d, src %d, bounds %d/%d/%d",
			n, src.NDims(), len(dstLo), len(srcLo), len(dims))
	}
	if step != nil && len(step) != n {
		return nil, fmt.Errorf("darray: transfer schedule step of rank %d for %d dimensions", len(step), n)
	}
	bounds := make([]int, 2*n)
	srcHi, dstHi := bounds[:n], bounds[n:]
	for i := 0; i < n; i++ {
		srcHi[i] = srcLo[i] + dims[i]
		dstHi[i] = dstLo[i] + dims[i]
	}
	var err error
	if step == nil {
		err = grid.CheckRect(srcLo, srcHi, src.Dims)
		if err == nil {
			err = grid.CheckRect(dstLo, dstHi, dst.Dims)
		}
	} else {
		err = grid.CheckStridedRect(srcLo, srcHi, step, src.Dims)
		if err == nil {
			err = grid.CheckStridedRect(dstLo, dstHi, step, dst.Dims)
		}
	}
	if err != nil {
		return nil, err
	}
	sched := &Schedule{}
	if step != nil {
		sched.Step = append([]int(nil), step...)
	}
	sDims, sOK := src.dimShareLists(srcLo, srcHi, step)
	dDims, dOK := dst.dimShareLists(dstLo, dstHi, step)
	switch {
	case !sOK || !dOK:
		if sched.Sets, err = pointSets(dst, src, dstLo, srcLo, dims, step); err != nil {
			return nil, err
		}
	case src.Regular() && dst.Regular():
		sched.Blocks = pairBlocks(dst, src, cutDims(dst, src, dDims, sDims))
	default:
		sched.Sets = pairSets(dst, src, cutDims(dst, src, dDims, sDims))
	}
	return sched, nil
}

// dimCut is one dimension of an owner-pair piece: the request-lattice
// positions first + t*period (t < count) that one source and one
// destination owner progression of the dimension have in common, seen
// from both sides as the local progressions srcLo + t*srcStep and
// dstLo + t*dstStep. span closes the piece as a strided local range the
// way the rectangle owner split does, at the nearer of the two owners'
// run ends: the Blocks form's hi - lo on both sides. srcSlot and dstSlot
// are the two owner cells' terms of their grid slots, which sum over the
// dimensions to the slots of the pair.
type dimCut struct {
	srcSlot, dstSlot int
	first, count     int
	srcLo, srcStep   int
	dstLo, dstStep   int
	span             int
}

// cutDims intersects, dimension by dimension, every source progression
// (sDims, of array src) with every destination progression (dDims, of
// dst), keeping each dimension's non-empty intersections in (source,
// destination) order.
func cutDims(dst, src *Meta, dDims, sDims [][]dimShare) [][]dimCut {
	sGrid := grid.Strides(src.GridDims, src.GridIndexing)
	dGrid := grid.Strides(dst.GridDims, dst.GridIndexing)
	cuts := make([][]dimCut, len(sDims))
	for i := range cuts {
		cuts[i] = cutDim(sDims[i], dDims[i], sGrid[i], dGrid[i])
	}
	return cuts
}

// cutDim is cutDims for one dimension, whose cells are sGrid and dGrid
// slots apart on the two grids.
func cutDim(src, dst []dimShare, sGrid, dGrid int) []dimCut {
	out := make([]dimCut, 0, len(src)+len(dst))
	for _, s := range src {
		for _, d := range dst {
			first, period, k := intersectProgressions(s.posLo, s.posStep, s.count, d.posLo, d.posStep, d.count)
			if k == 0 {
				continue
			}
			c := dimCut{
				srcSlot: s.cell * sGrid, dstSlot: d.cell * dGrid, first: first, count: k,
				srcLo: s.lo + (first-s.posLo)/s.posStep*s.step, srcStep: period / s.posStep * s.step,
				dstLo: d.lo + (first-d.posLo)/d.posStep*d.step, dstStep: period / d.posStep * d.step,
			}
			c.span = min(s.lim-c.srcLo, d.lim-c.dstLo)
			out = append(out, c)
		}
	}
	return out
}

// intersectProgressions returns the common points of the arithmetic
// progressions {a + t*pa : 0 <= t < na} and {b + u*pb : 0 <= u < nb}
// (pa, pb >= 1) as the progression {first + v*period : 0 <= v < count},
// period = lcm(pa, pb); count is 0 when they share no point. A common
// point exists iff a ≡ b modulo gcd(pa, pb), and the Chinese remainder
// theorem gives the first one at or after max(a, b).
func intersectProgressions(a, pa, na, b, pb, nb int) (first, period, count int) {
	g := gcd(pa, pb)
	period = pa / g * pb
	diff := b - a
	if na <= 0 || nb <= 0 || diff%g != 0 {
		return 0, period, 0
	}
	// a + pa*t ≡ b (mod pb)  <=>  (pa/g)*t ≡ diff/g (mod pb/g).
	m := pb / g
	t := floorMod(floorMod(diff/g, m)*modInverse(pa/g, m), m)
	first = a + pa*t // ≡ a (mod pa), ≡ b (mod pb), within [a, a+period)
	if lo := max(a, b); first < lo {
		first += (lo - first + period - 1) / period * period
	}
	last := min(a+(na-1)*pa, b+(nb-1)*pb)
	if first > last {
		return first, period, 0
	}
	return first, period, (last-first)/period + 1
}

// modInverse returns the inverse of x modulo m (x and m coprime, m >= 1)
// in [0, m), by the extended Euclidean algorithm.
func modInverse(x, m int) int {
	r0, r1 := floorMod(x, m), m
	s0, s1 := 1, 0
	for r1 != 0 {
		q := r0 / r1
		r0, r1 = r1, r0-q*r1
		s0, s1 = s1, s0-q*s1
	}
	return floorMod(s0, m)
}

// floorMod returns x mod m in [0, m) for m >= 1.
func floorMod(x, m int) int {
	if x %= m; x < 0 {
		x += m
	}
	return x
}

// nextIndex advances the row-major odometer idx over the box [lo, hi)
// (last dimension fastest) and reports false once it wraps around.
func nextIndex(idx, lo, hi []int) bool {
	for i := len(idx) - 1; i >= 0; i-- {
		if idx[i]++; idx[i] < hi[i] {
			return true
		}
		idx[i] = lo[i]
	}
	return false
}

// pieceSlots returns the source and destination grid slots of the owner
// pair whose piece takes cut idx[i] in dimension i.
func pieceSlots(cuts [][]dimCut, idx []int) (sSlot, dSlot int) {
	for i := range cuts {
		sSlot += cuts[i][idx[i]].srcSlot
		dSlot += cuts[i][idx[i]].dstSlot
	}
	return sSlot, dSlot
}

// pairBlocks assembles the Blocks form of a regular×regular schedule.
// Every combination of one cut per dimension is an owner-pair piece.
// Each dimension's cuts arrive grouped by source cell, so walking the
// groups as an outer row-major odometer and the cuts within the current
// groups as an inner one emits the pieces source owner by source owner,
// each with its destination owners in row-major order.
func pairBlocks(dst, src *Meta, cuts [][]dimCut) []PairBlock {
	n := len(cuts)
	total := 1
	for _, c := range cuts {
		total *= len(c)
	}
	blocks := make([]PairBlock, 0, total)
	bounds := make([]int, 4*n*total)
	scratch := make([]int, 3*n)
	gLo, gHi, idx := scratch[:n], scratch[n:2*n], scratch[2*n:]
	groupEnd := func(c []dimCut, from int) int {
		to := from + 1
		for to < len(c) && c[to].srcSlot == c[from].srcSlot {
			to++
		}
		return to
	}
	for i := range cuts {
		gHi[i] = groupEnd(cuts[i], 0)
	}
	for {
		copy(idx, gLo)
		for {
			sSlot, dSlot := pieceSlots(cuts, idx)
			b := bounds[4*n*len(blocks):]
			pb := PairBlock{
				SrcProc: src.Procs[sSlot], DstProc: dst.Procs[dSlot],
				SrcSlot: sSlot, DstSlot: dSlot,
				SrcLo: b[:n:n], SrcHi: b[n : 2*n : 2*n],
				DstLo: b[2*n : 3*n : 3*n], DstHi: b[3*n : 4*n : 4*n],
			}
			for i := range cuts {
				c := &cuts[i][idx[i]]
				pb.SrcLo[i], pb.SrcHi[i] = c.srcLo, c.srcLo+c.span
				pb.DstLo[i], pb.DstHi[i] = c.dstLo, c.dstLo+c.span
			}
			blocks = append(blocks, pb)
			if !nextIndex(idx, gLo, gHi) {
				break
			}
		}
		i := n - 1
		for ; i >= 0; i-- {
			if gLo[i] = gHi[i]; gLo[i] < len(cuts[i]) {
				gHi[i] = groupEnd(cuts[i], gLo[i])
				break
			}
			gLo[i], gHi[i] = 0, groupEnd(cuts[i], 0)
		}
		if i < 0 {
			return blocks
		}
	}
}

// pairSets assembles the Sets form of a schedule with an irregular side.
// Every combination of one cut per dimension is an owner-pair piece, and
// a piece's first lattice point in row-major order is its per-dimension
// first positions; sorting each dimension's cuts by first position and
// walking the combinations as a row-major odometer therefore emits the
// pairs in order of first appearance. Each piece's two local lattices
// expand straight into slices of two presized offset buffers.
func pairSets(dst, src *Meta, cuts [][]dimCut) []PairSet {
	n := len(cuts)
	total, points := 1, 1
	scratch := make([]int, 7*n)
	idx, zero, cnt := scratch[:n], scratch[n:2*n], scratch[2*n:3*n]
	lo, st, k, pos := scratch[3*n:4*n], scratch[4*n:5*n], scratch[5*n:6*n], scratch[6*n:]
	for i, c := range cuts {
		slices.SortFunc(c, func(x, y dimCut) int { return x.first - y.first })
		total *= len(c)
		cnt[i] = len(c)
		along := 0
		for j := range c {
			along += c[j].count
		}
		points *= along
	}
	sets := make([]PairSet, 0, total)
	srcOffs := make([]int, points)
	dstOffs := make([]int, points)
	sStr := grid.Strides(src.LocalDimsPlus, src.Indexing)
	dStr := grid.Strides(dst.LocalDimsPlus, dst.Indexing)
	used := 0
	for {
		sSlot, dSlot := pieceSlots(cuts, idx)
		size := 1
		for i := range cuts {
			c := &cuts[i][idx[i]]
			lo[i], st[i], k[i] = c.srcLo, c.srcStep, c.count
			size *= c.count
		}
		ps := PairSet{
			SrcProc: src.Procs[sSlot], DstProc: dst.Procs[dSlot],
			SrcSlot: sSlot, DstSlot: dSlot,
			SrcOffs: srcOffs[used : used+size : used+size], DstOffs: dstOffs[used : used+size : used+size],
		}
		used += size
		progressionOffsets(ps.SrcOffs, src.Borders, sStr, lo, st, k, pos)
		for i := range cuts {
			c := &cuts[i][idx[i]]
			lo[i], st[i] = c.dstLo, c.dstStep
		}
		progressionOffsets(ps.DstOffs, dst.Borders, dStr, lo, st, k, pos)
		sets = append(sets, ps)
		if !nextIndex(idx, zero, cnt) {
			return sets
		}
	}
}

// progressionOffsets writes to out, in row-major order, the
// border-displaced storage offsets of the local lattice whose dimension
// i is the progression lo[i] + t*step[i] (t < count[i]), for a section
// with the given borders and storage strides. pos is n ints of scratch.
func progressionOffsets(out, borders, strides, lo, step, count, pos []int) {
	off := 0
	for i := range lo {
		off += (lo[i] + borders[2*i]) * strides[i]
		pos[i] = 0
	}
	if len(lo) == 0 {
		out[0] = off
		return
	}
	// The innermost dimension is written as one run per row; the outer
	// dimensions advance as an odometer.
	last := len(lo) - 1
	run, inner := count[last], step[last]*strides[last]
	for k := 0; k < len(out); k += run {
		o := off
		row := out[k : k+run]
		for t := range row {
			row[t] = o
			o += inner
		}
		for i := last - 1; i >= 0; i-- {
			pos[i]++
			off += step[i] * strides[i]
			if pos[i] < count[i] {
				break
			}
			off -= count[i] * step[i] * strides[i]
			pos[i] = 0
		}
	}
}

// pointSets is the per-point schedule behind TransferSchedule's
// block-cyclic fallback: it resolves every lattice point on both sides
// and buckets the points by (source slot, destination slot), pairs
// ordered by first appearance in row-major lattice order.
func pointSets(dst, src *Meta, dstLo, srcLo, dims, step []int) ([]PairSet, error) {
	n := len(dims)
	srcStrides := grid.Strides(src.LocalDimsPlus, src.Indexing)
	dstStrides := grid.Strides(dst.LocalDimsPlus, dst.Indexing)
	srcIdx := make([]int, n)
	dstIdx := make([]int, n)
	type pairKey struct{ s, d int }
	byPair := make(map[pairKey]int) // (srcSlot, dstSlot) -> index into sets
	var sets []PairSet
	visit := func(off []int, _ int) error {
		for i := range off {
			srcIdx[i] = srcLo[i] + off[i]
			dstIdx[i] = dstLo[i] + off[i]
		}
		sSlot, sOff, ok := src.ResolveIndex(srcIdx, srcStrides)
		if !ok {
			return fmt.Errorf("darray: unresolvable source index %v", srcIdx)
		}
		dSlot, dOff, ok := dst.ResolveIndex(dstIdx, dstStrides)
		if !ok {
			return fmt.Errorf("darray: unresolvable destination index %v", dstIdx)
		}
		k := pairKey{sSlot, dSlot}
		pi, seen := byPair[k]
		if !seen {
			pi = len(sets)
			byPair[k] = pi
			sets = append(sets, PairSet{
				SrcProc: src.Procs[sSlot], DstProc: dst.Procs[dSlot],
				SrcSlot: sSlot, DstSlot: dSlot,
			})
		}
		ps := &sets[pi]
		ps.SrcOffs = append(ps.SrcOffs, sOff)
		ps.DstOffs = append(ps.DstOffs, dOff)
		return nil
	}
	zero := make([]int, n)
	var err error
	if step == nil {
		err = grid.ForEachRect(zero, dims, visit)
	} else {
		err = grid.ForEachStridedRect(zero, dims, step, visit)
	}
	if err != nil {
		return nil, err
	}
	return sets, nil
}

// CopyRect copies the strided interior rectangle (srcLo, srcHi, step) —
// dense when step is nil — of the source section onto the same-shaped
// lattice anchored at dstLo in the destination section, the two
// sections belonging to (possibly different) arrays described by their
// metadata. This is the zero-message service routine of the
// redistribution plane's same-process pairs: for rectangles of at most
// MaxFastDims dimensions the dual-odometer walk performs no heap
// allocation, moving contiguous runs with copy when both sections are
// row-major doubles with a unit innermost step. Element types may
// differ (values convert). Both rectangles are validated against the
// sections' interior dimensions.
func CopyRect(dst *Section, dstMeta *Meta, dstLo []int, src *Section, srcMeta *Meta, srcLo, srcHi, step []int) error {
	n := len(srcLo)
	if dstMeta.NDims() != n || srcMeta.NDims() != n || len(dstLo) != n || len(srcHi) != n {
		return fmt.Errorf("darray: copy-rect rank mismatch: dst %d, src %d, bounds %d/%d/%d",
			dstMeta.NDims(), srcMeta.NDims(), len(dstLo), len(srcLo), len(srcHi))
	}
	if step != nil && len(step) != n {
		return fmt.Errorf("darray: copy-rect step of rank %d for %d dimensions", len(step), n)
	}
	if step == nil {
		if err := grid.CheckRect(srcLo, srcHi, srcMeta.LocalDims); err != nil {
			return err
		}
	} else if err := grid.CheckStridedRect(srcLo, srcHi, step, srcMeta.LocalDims); err != nil {
		return err
	}
	if n <= MaxFastDims {
		return copyRectFast(dst, dstMeta, dstLo, src, srcMeta, srcLo, srcHi, step)
	}
	st := step
	if st == nil {
		st = make([]int, n)
		for i := range st {
			st[i] = 1
		}
	}
	cnt := make([]int, n)
	dstHi := make([]int, n)
	for i := 0; i < n; i++ {
		cnt[i] = (srcHi[i] - srcLo[i] + st[i] - 1) / st[i]
		dstHi[i] = dstLo[i] + (cnt[i]-1)*st[i] + 1
	}
	if err := grid.CheckStridedRect(dstLo, dstHi, st, dstMeta.LocalDims); err != nil {
		return err
	}
	sStr := grid.Strides(srcMeta.LocalDimsPlus, srcMeta.Indexing)
	dStr := grid.Strides(dstMeta.LocalDimsPlus, dstMeta.Indexing)
	sBase, dBase := 0, 0
	for i := 0; i < n; i++ {
		sBase += (srcLo[i] + srcMeta.Borders[2*i]) * sStr[i]
		dBase += (dstLo[i] + dstMeta.Borders[2*i]) * dStr[i]
		sStr[i] *= st[i]
		dStr[i] *= st[i]
	}
	zero := make([]int, n)
	return grid.ForEachRect(zero, cnt, func(idx []int, _ int) error {
		so, do := sBase, dBase
		for i := range idx {
			so += idx[i] * sStr[i]
			do += idx[i] * dStr[i]
		}
		dst.SetFloat(do, src.GetFloat(so))
		return nil
	})
}

// copyRectFast is CopyRect specialised to at most MaxFastDims
// dimensions: all scratch lives in fixed-size stack arrays and a dual
// odometer advances both sections' storage offsets incrementally, so
// the copy performs no heap allocation. The source bounds are already
// validated; the destination bounds are validated here from the lattice
// counts.
func copyRectFast(dst *Section, dstMeta *Meta, dstLo []int, src *Section, srcMeta *Meta, srcLo, srcHi, step []int) error {
	n := len(srcLo)
	if step == nil {
		step = denseStep[:n]
	}
	var dstHi [MaxFastDims]int
	var cnt, sStride, dStride, pos [MaxFastDims]int
	for i := 0; i < n; i++ {
		cnt[i] = (srcHi[i] - srcLo[i] + step[i] - 1) / step[i]
		dstHi[i] = dstLo[i] + (cnt[i]-1)*step[i] + 1
	}
	if err := grid.CheckStridedRect(dstLo, dstHi[:n], step, dstMeta.LocalDims); err != nil {
		return err
	}
	var sPlus, dPlus [MaxFastDims]int
	for i := 0; i < n; i++ {
		sPlus[i] = srcMeta.LocalDimsPlus[i]
		dPlus[i] = dstMeta.LocalDimsPlus[i]
	}
	fill := func(strides *[MaxFastDims]int, plus *[MaxFastDims]int, ix grid.Indexing) {
		st := 1
		if ix == grid.RowMajor {
			for i := n - 1; i >= 0; i-- {
				strides[i] = st
				st *= plus[i]
			}
		} else {
			for i := 0; i < n; i++ {
				strides[i] = st
				st *= plus[i]
			}
		}
	}
	fill(&sStride, &sPlus, srcMeta.Indexing)
	fill(&dStride, &dPlus, dstMeta.Indexing)
	sOff, dOff := 0, 0
	for i := 0; i < n; i++ {
		sOff += (srcLo[i] + srcMeta.Borders[2*i]) * sStride[i]
		dOff += (dstLo[i] + dstMeta.Borders[2*i]) * dStride[i]
		sStride[i] *= step[i]
		dStride[i] *= step[i]
	}
	last := n - 1
	run := cnt[last]
	contiguous := srcMeta.Indexing == grid.RowMajor && dstMeta.Indexing == grid.RowMajor &&
		src.Type == Double && dst.Type == Double && step[last] == 1
	for {
		if contiguous {
			copy(dst.F[dOff:dOff+run], src.F[sOff:sOff+run])
		} else {
			so, do := sOff, dOff
			for j := 0; j < run; j++ {
				dst.SetFloat(do, src.GetFloat(so))
				so += sStride[last]
				do += dStride[last]
			}
		}
		i := last - 1
		for ; i >= 0; i-- {
			pos[i]++
			sOff += sStride[i]
			dOff += dStride[i]
			if pos[i] < cnt[i] {
				break
			}
			sOff -= cnt[i] * sStride[i]
			dOff -= cnt[i] * dStride[i]
			pos[i] = 0
		}
		if i < 0 {
			return nil
		}
	}
}

// CopyOffsets copies the elements at the paired storage offsets of a
// transfer-schedule Set between two sections on the same process:
// source element srcOffs[i] moves to destination element dstOffs[i], in
// order (last writer wins on repeated destinations). Offsets are
// bounds-checked against both sections; the copy performs no heap
// allocation. Element types may differ (values convert).
func CopyOffsets(dst, src *Section, dstOffs, srcOffs []int) error {
	if len(dstOffs) != len(srcOffs) {
		return fmt.Errorf("darray: %d destination offsets for %d source offsets", len(dstOffs), len(srcOffs))
	}
	sn, dn := src.Len(), dst.Len()
	for i := range srcOffs {
		if srcOffs[i] < 0 || srcOffs[i] >= sn {
			return fmt.Errorf("darray: copy offset %d outside source section of %d elements", srcOffs[i], sn)
		}
		if dstOffs[i] < 0 || dstOffs[i] >= dn {
			return fmt.Errorf("darray: copy offset %d outside destination section of %d elements", dstOffs[i], dn)
		}
	}
	if src.Type == Double && dst.Type == Double {
		for i, off := range srcOffs {
			dst.F[dstOffs[i]] = src.F[off]
		}
		return nil
	}
	for i, off := range srcOffs {
		dst.SetFloat(dstOffs[i], src.GetFloat(off))
	}
	return nil
}

// StridedShare describes one owner's holding of a strided-rectangle
// request as arithmetic progressions rather than materialized offsets:
// the owner's piece is the interior-local strided rectangle
// (Lo, Hi, Step), and element t (per-dimension t[i], row-major) of that
// piece sits at position PosLo[i] + t[i]*PosStep[i] of the request
// lattice. It is the compact descriptor of the cyclic rectangle path —
// a coordinator sends O(ndims) bounds instead of O(k) offset vectors.
type StridedShare struct {
	Proc           int
	Slot           int   // grid slot of the owning section
	Lo, Hi, Step   []int // interior-local strided rectangle at the owner
	PosLo, PosStep []int // placement of the piece on the request lattice
}

// dimShare is one dimension's owner progression inside StridedShares
// and TransferSchedule: the cell, its local strided run of count points,
// and the run's placement on the request lattice along that dimension.
// lim is the exclusive local end of the owner's stretch of the request
// range (the cell end or the request end, whichever is nearer) — the hi
// a rectangle owner split reports.
type dimShare struct {
	cell           int
	lo, hi, step   int
	count          int
	posLo, posStep int
	lim            int
}

// dimShareLists splits the lattice of the validated strided rectangle
// (lo, hi, step) — dense when step is nil — into each dimension's owner
// progressions, each list in cell order. ok is false when a
// block-cyclic dimension of width > 1 spans several cells: its holdings
// are not single progressions.
func (m *Meta) dimShareLists(lo, hi, step []int) (dims [][]dimShare, ok bool) {
	n := m.NDims()
	for i := 0; i < n; i++ {
		if m.Dists != nil && m.GridDims[i] > 1 && m.Dists[i].Kind != grid.DistBlock && m.Dists[i].B > 1 {
			return nil, false
		}
	}
	dims = make([][]dimShare, n)
	for i := 0; i < n; i++ {
		st := 1
		if step != nil {
			st = step[i]
		}
		if m.Dists != nil && m.GridDims[i] > 1 && m.Dists[i].Kind != grid.DistBlock {
			dims[i] = cyclicDimShares(lo[i], hi[i], st, m.GridDims[i])
		} else {
			dims[i] = blockDimShares(lo[i], hi[i], st, m.LocalDims[i], m.Dims[i])
		}
	}
	return dims, true
}

// StridedShares splits the lattice of the strided rectangle
// (lo, hi, step) — dense when step is nil — by owner, each owner's
// piece expressed as a strided local rectangle plus its placement on
// the request lattice. That representation exists exactly when every
// dimension maps the request lattice onto each cell as an arithmetic
// progression: block dimensions (clamped runs, posStep 1) and width-1
// cyclic dimensions (residue progressions with period
// GridDims/gcd(step, GridDims)) qualify; a block-cyclic dimension of
// width > 1 over several cells does not, and the call reports ok=false
// so callers fall back to OwnerLattice. Shares appear in row-major cell
// order; every lattice point lies in exactly one share.
func (m *Meta) StridedShares(lo, hi, step []int) (shares []StridedShare, ok bool, err error) {
	if step == nil {
		err = grid.CheckRect(lo, hi, m.Dims)
	} else {
		err = grid.CheckStridedRect(lo, hi, step, m.Dims)
	}
	if err != nil {
		return nil, false, err
	}
	dims, ok := m.dimShareLists(lo, hi, step)
	if !ok {
		return nil, false, nil
	}
	n := m.NDims()
	counts := make([]int, n)
	for i := range dims {
		counts[i] = len(dims[i])
	}
	shares = make([]StridedShare, 0, grid.Size(counts))
	scratch := make([]int, 3*n)
	idx, zero, cells := scratch[:n], scratch[n:2*n], scratch[2*n:]
	for {
		sh := StridedShare{
			Lo: make([]int, n), Hi: make([]int, n), Step: make([]int, n),
			PosLo: make([]int, n), PosStep: make([]int, n),
		}
		for i := 0; i < n; i++ {
			ds := dims[i][idx[i]]
			cells[i] = ds.cell
			sh.Lo[i], sh.Hi[i], sh.Step[i] = ds.lo, ds.hi, ds.step
			sh.PosLo[i], sh.PosStep[i] = ds.posLo, ds.posStep
		}
		slot, err := grid.ProcSlot(cells, m.GridDims, m.GridIndexing)
		if err != nil {
			return nil, false, err
		}
		sh.Proc = m.Procs[slot]
		sh.Slot = slot
		shares = append(shares, sh)
		if !nextIndex(idx, zero, counts) {
			return shares, true, nil
		}
	}
}

// cyclicDimShares computes the per-cell progressions of the lattice
// {lo + j*st : lo + j*st < hi} along one width-1 cyclic dimension of p
// cells. The lattice visits cells with period p/gcd(st, p); a cell
// holding any point holds every period-th lattice point from its first,
// and consecutive held points are st/gcd(st, p) apart in local storage
// (their global distance is the multiple st*p/gcd of p).
func cyclicDimShares(lo, hi, st, p int) []dimShare {
	cnt := (hi - lo + st - 1) / st
	d := gcd(st, p)
	period := p / d
	out := make([]dimShare, 0, period)
	for c := 0; c < p; c++ {
		j0 := -1
		for j := 0; j < period; j++ {
			if (lo+j*st)%p == c {
				j0 = j
				break
			}
		}
		if j0 < 0 || j0 >= cnt {
			continue
		}
		k := (cnt-1-j0)/period + 1
		lLo := (lo + j0*st) / p
		lStep := st / d
		lHi := lLo + (k-1)*lStep + 1
		out = append(out, dimShare{
			cell: c, lo: lLo, hi: lHi, step: lStep, count: k,
			posLo: j0, posStep: period, lim: lHi,
		})
	}
	return out
}

// blockDimShares computes the per-cell runs of the lattice
// {lo + j*st : lo + j*st < hi} along one block dimension of cell width b
// and extent n (the trailing cell possibly truncated): each touched
// cell holds a contiguous stretch of consecutive lattice points.
func blockDimShares(lo, hi, st, b, n int) []dimShare {
	cnt := (hi - lo + st - 1) / st
	last := lo + (cnt-1)*st
	out := make([]dimShare, 0, last/b-lo/b+1)
	for c := lo / b; c <= last/b; c++ {
		cellLo, cellHi := c*b, (c+1)*b
		if cellHi > n {
			cellHi = n
		}
		jFirst := 0
		if cellLo > lo {
			jFirst = (cellLo - lo + st - 1) / st
		}
		jLast := (cellHi - 1 - lo) / st
		if jLast > cnt-1 {
			jLast = cnt - 1
		}
		if jFirst > jLast {
			continue // the stride skips this cell entirely
		}
		lLo := lo + jFirst*st - cellLo
		k := jLast - jFirst + 1
		out = append(out, dimShare{
			cell: c, lo: lLo, hi: lLo + (k-1)*st + 1, step: st, count: k,
			posLo: jFirst, posStep: 1, lim: min(cellHi, hi) - cellLo,
		})
	}
	return out
}

// gcd returns the greatest common divisor of two positive integers.
func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
