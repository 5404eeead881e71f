package arraymgr

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/darray"
	"repro/internal/grid"
	"repro/internal/msg"
	"repro/internal/vp"
)

// The chaos oracle: the same randomized all-paths property harness as
// oracle_test.go, but run over a router that drops, duplicates, delays
// and reorders messages under a seeded fault plan, with the manager's
// timeout/retry policy installed. Correctness must be bit-identical to
// the sequential reference — the fault plane may cost retransmits, never
// wrong answers — and the retransmit counters must stay within a budget
// proportional to the injected drops (no retransmit storms).

// chaosFaultPlan is the standard chaos mix: drop and duplicate a little
// under one in ten messages each, jitter deliveries by up to 100µs, and
// swap queue neighbours now and then.
func chaosFaultPlan(seed int64) *msg.FaultPlan {
	return &msg.FaultPlan{
		Seed: seed,
		Rule: msg.FaultRule{
			Drop:    0.08,
			Dup:     0.08,
			Jitter:  100 * time.Microsecond,
			Reorder: 0.1,
		},
	}
}

// chaosPolicy keeps the per-attempt timeout far above the plan's jitter
// (so a delayed message is never mistaken for a lost one) while staying
// small enough that the drops the plan does inject cost milliseconds,
// not seconds. Retries is generous: eleven consecutive drops of the
// same request at p=0.08 has probability ~1e-12.
func chaosPolicy() *CallPolicy {
	return &CallPolicy{
		Timeout: 3 * time.Millisecond,
		Retries: 10,
		Backoff: 200 * time.Microsecond,
	}
}

// shadowSpec derives a second array specification with the same shape
// and element type but a deliberately different distribution (cyclic in
// the leading dimension), so redistribute ops cross decomposition
// boundaries.
func shadowSpec(spec CreateSpec) CreateSpec {
	out := spec
	out.Borders = NoBorderSpec{}
	distrib := make([]grid.Decomp, len(spec.Dims))
	distrib[0] = grid.CyclicDefault()
	for i := 1; i < len(distrib); i++ {
		distrib[i] = grid.NoDecomp()
	}
	out.Distrib = distrib
	return out
}

// TestChaosOracleAllPaths re-runs the randomized operation mix of
// TestOracleAllPaths — dense, strided, gather/scatter, per-element, plus
// owner-to-owner redistribution into a differently-distributed shadow
// array — under the chaos fault plan, checking every result against the
// sequential oracle and pinning the retransmit budget.
func TestChaosOracleAllPaths(t *testing.T) {
	const ops = 40
	rng := rand.New(rand.NewSource(9))
	var totalDropped, totalDuplicated, totalRetransmits uint64
	for ci, c := range oracleCases() {
		ci, c := ci, c
		t.Run(c.name, func(t *testing.T) {
			machine, m := newTestManager(t, c.p)
			machine.Router().SetFaultPlan(chaosFaultPlan(int64(ci)*7919 + 11))
			m.SetCallPolicy(chaosPolicy())
			id := mustCreate(t, m, 0, c.spec)
			shadow := mustCreate(t, m, 0, shadowSpec(c.spec))
			ref := newOracle(c.spec.Dims, c.spec.Type)
			dims := c.spec.Dims
			nd := len(dims)

			meta, st := m.Meta(0, id)
			if st != StatusOK {
				t.Fatalf("Meta: %v", st)
			}
			origins := append([]int{0}, meta.SectionProcs()...)
			origin := func() int { return origins[rng.Intn(len(origins))] }

			nextVal := 1.0
			value := func() float64 {
				nextVal++
				return nextVal
			}

			for op := 0; op < ops; op++ {
				switch rng.Intn(8) {
				case 0: // dense write
					lo, hi, _ := randomRect(rng, dims)
					vals := make([]float64, grid.RectSize(lo, hi))
					for i := range vals {
						vals[i] = value()
					}
					if st := m.WriteBlock(origin(), id, lo, hi, vals); st != StatusOK {
						t.Fatalf("op %d: WriteBlock: %v", op, st)
					}
					_ = grid.ForEachRect(lo, hi, func(idx []int, k int) error {
						ref.set(idx, vals[k])
						return nil
					})
				case 1: // dense read
					lo, hi, _ := randomRect(rng, dims)
					got, st := m.ReadBlock(origin(), id, lo, hi)
					if st != StatusOK {
						t.Fatalf("op %d: ReadBlock: %v", op, st)
					}
					_ = grid.ForEachRect(lo, hi, func(idx []int, k int) error {
						if got[k] != ref.get(idx) {
							t.Fatalf("op %d: ReadBlock[%v] = %v, oracle %v", op, idx, got[k], ref.get(idx))
						}
						return nil
					})
				case 2: // strided write
					lo, hi, step := randomRect(rng, dims)
					vals := make([]float64, grid.StridedRectSize(lo, hi, step))
					for i := range vals {
						vals[i] = value()
					}
					if st := m.WriteBlockStrided(origin(), id, lo, hi, step, vals); st != StatusOK {
						t.Fatalf("op %d: WriteBlockStrided: %v", op, st)
					}
					_ = grid.ForEachStridedRect(lo, hi, step, func(idx []int, k int) error {
						ref.set(idx, vals[k])
						return nil
					})
				case 3: // strided read
					lo, hi, step := randomRect(rng, dims)
					got, st := m.ReadBlockStrided(origin(), id, lo, hi, step)
					if st != StatusOK {
						t.Fatalf("op %d: ReadBlockStrided: %v", op, st)
					}
					_ = grid.ForEachStridedRect(lo, hi, step, func(idx []int, k int) error {
						if got[k] != ref.get(idx) {
							t.Fatalf("op %d: strided read [%v] = %v, oracle %v", op, idx, got[k], ref.get(idx))
						}
						return nil
					})
				case 4: // scatter
					indices := randomIndices(rng, dims, 1+rng.Intn(20))
					vals := make([]float64, len(indices))
					for i := range vals {
						vals[i] = value()
					}
					if st := m.ScatterElements(origin(), id, indices, vals); st != StatusOK {
						t.Fatalf("op %d: ScatterElements: %v", op, st)
					}
					for i, idx := range indices {
						ref.set(idx, vals[i])
					}
				case 5: // gather
					indices := randomIndices(rng, dims, 1+rng.Intn(20))
					got, st := m.GatherElements(origin(), id, indices)
					if st != StatusOK {
						t.Fatalf("op %d: GatherElements: %v", op, st)
					}
					for i, idx := range indices {
						if got[i] != ref.get(idx) {
							t.Fatalf("op %d: gather[%d] (%v) = %v, oracle %v", op, i, idx, got[i], ref.get(idx))
						}
					}
				case 6: // per-element probe
					idx := randomIndices(rng, dims, 1)[0]
					if rng.Intn(2) == 0 {
						v := value()
						if st := m.WriteElement(origin(), id, idx, v); st != StatusOK {
							t.Fatalf("op %d: WriteElement: %v", op, st)
						}
						ref.set(idx, v)
					} else {
						got, st := m.ReadElement(origin(), id, idx)
						if st != StatusOK {
							t.Fatalf("op %d: ReadElement: %v", op, st)
						}
						if got != ref.get(idx) {
							t.Fatalf("op %d: ReadElement(%v) = %v, oracle %v", op, idx, got, ref.get(idx))
						}
					}
				case 7: // redistribute into the shadow array, then read it back
					lo, hi, step := randomRect(rng, dims)
					strided := false
					for _, s := range step {
						if s != 1 {
							strided = true
						}
					}
					var got []float64
					if strided {
						if st := m.RedistributeStrided(origin(), shadow, id, lo, hi, step); st != StatusOK {
							t.Fatalf("op %d: RedistributeStrided: %v", op, st)
						}
						got, st = m.ReadBlockStrided(origin(), shadow, lo, hi, step)
						if st != StatusOK {
							t.Fatalf("op %d: shadow strided readback: %v", op, st)
						}
						_ = grid.ForEachStridedRect(lo, hi, step, func(idx []int, k int) error {
							if got[k] != ref.get(idx) {
								t.Fatalf("op %d: redistribute [%v] = %v, oracle %v", op, idx, got[k], ref.get(idx))
							}
							return nil
						})
					} else {
						if st := m.Redistribute(origin(), shadow, id, lo, hi); st != StatusOK {
							t.Fatalf("op %d: Redistribute: %v", op, st)
						}
						got, st = m.ReadBlock(origin(), shadow, lo, hi)
						if st != StatusOK {
							t.Fatalf("op %d: shadow readback: %v", op, st)
						}
						_ = grid.ForEachRect(lo, hi, func(idx []int, k int) error {
							if got[k] != ref.get(idx) {
								t.Fatalf("op %d: redistribute [%v] = %v, oracle %v", op, idx, got[k], ref.get(idx))
							}
							return nil
						})
					}
				}
			}

			// Final full dense readback against the oracle.
			lo := make([]int, nd)
			snap, st := m.ReadBlock(0, id, lo, dims)
			if st != StatusOK {
				t.Fatalf("final ReadBlock: %v", st)
			}
			_ = grid.ForEachRect(lo, dims, func(idx []int, k int) error {
				if snap[k] != ref.get(idx) {
					t.Fatalf("final state diverges at %v: %v vs oracle %v", idx, snap[k], ref.get(idx))
				}
				return nil
			})

			// Budget pins: retransmits must scale with injected drops (one
			// dropped redistribute fan-out request can force up to
			// owner×owner pair resends, hence the wide multiplier), and a
			// retransmit without timeouts is impossible.
			fs := machine.Router().FaultStats()
			rs := m.RetryStats()
			if rs.Retransmits > 64*(fs.Dropped+1) {
				t.Fatalf("retransmit storm: %d retransmits for %d drops", rs.Retransmits, fs.Dropped)
			}
			if rs.Retransmits > 0 && rs.Timeouts == 0 {
				t.Fatalf("%d retransmits with no recorded timeout", rs.Retransmits)
			}
			totalDropped += fs.Dropped
			totalDuplicated += fs.Duplicated
			totalRetransmits += rs.Retransmits
		})
	}
	// Across the sweep the plan must actually have bitten — a chaos run
	// that never dropped, never duplicated, or never retransmitted is not
	// exercising the recovery machinery.
	if totalDropped == 0 {
		t.Error("fault plan dropped no messages across the whole sweep")
	}
	if totalDuplicated == 0 {
		t.Error("fault plan duplicated no messages across the whole sweep")
	}
	if totalRetransmits == 0 {
		t.Error("no retransmits across the whole sweep: recovery machinery untested")
	}
}

// TestNoFaultNoRetransmits pins the quiescent case: with a policy
// installed but no fault plan, a workload identical in shape to the
// chaos mix completes with zero retransmits and zero timeouts — the
// deadline machinery is pure overhead-free bookkeeping on a healthy
// router.
func TestNoFaultNoRetransmits(t *testing.T) {
	c := oracleCases()[1] // 2d/block-block
	_, m := newTestManager(t, c.p)
	m.SetCallPolicy(chaosPolicy())
	id := mustCreate(t, m, 0, c.spec)
	dims := c.spec.Dims
	rng := rand.New(rand.NewSource(3))
	for op := 0; op < 30; op++ {
		lo, hi, _ := randomRect(rng, dims)
		vals := make([]float64, grid.RectSize(lo, hi))
		for i := range vals {
			vals[i] = float64(op)
		}
		if st := m.WriteBlock(0, id, lo, hi, vals); st != StatusOK {
			t.Fatalf("WriteBlock: %v", st)
		}
		if _, st := m.ReadBlock(1, id, lo, hi); st != StatusOK {
			t.Fatalf("ReadBlock: %v", st)
		}
	}
	rs := m.RetryStats()
	if rs.Retransmits != 0 || rs.Timeouts != 0 {
		t.Fatalf("healthy router cost retransmits=%d timeouts=%d", rs.Retransmits, rs.Timeouts)
	}
}

// killSpec builds a 1d block array over all four processors whose piece
// boundaries are known, so a full-range gather necessarily touches the
// processor the test kills.
func killSpec() CreateSpec {
	c := oracleCases()[0] // 1d/block, P=4, dims 24
	return c.spec
}

// TestKillMidGather kills an owner while a full-range dense gather is in
// flight (router latency keeps the requests airborne at kill time) and
// requires the coordinator to surface a down/timeout status within the
// policy's bounded budget instead of hanging.
func TestKillMidGather(t *testing.T) {
	machine, m := newTestManager(t, 4)
	machine.Router().SetLatency(2 * time.Millisecond)
	m.SetCallPolicy(&CallPolicy{Timeout: 3 * time.Millisecond, Retries: 2, Backoff: 200 * time.Microsecond})
	id := mustCreate(t, m, 0, killSpec())

	done := make(chan Status, 1)
	go func() {
		_, st := m.ReadBlock(0, id, []int{0}, []int{24})
		done <- st
	}()
	time.Sleep(500 * time.Microsecond)
	if err := machine.Router().KillProcessor(2); err != nil {
		t.Fatalf("KillProcessor: %v", err)
	}
	select {
	case st := <-done:
		if st != StatusDown && st != StatusTimeout {
			t.Fatalf("gather over a dead owner: status %v, want STATUS_DOWN or STATUS_TIMEOUT", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ReadBlock hung after KillProcessor")
	}

	// Survivors keep serving: a rectangle owned entirely by live
	// processors still completes.
	if _, st := m.ReadBlock(0, id, []int{18}, []int{24}); st != StatusOK {
		t.Fatalf("read from surviving owner: %v", st)
	}
}

// TestKillMidRedistribute kills a source owner while an owner-to-owner
// redistribution is in flight; the coordinator's ack gather must convert
// the lost pairs into a surfaced down/timeout status, not a hang.
func TestKillMidRedistribute(t *testing.T) {
	machine, m := newTestManager(t, 4)
	m.SetCallPolicy(&CallPolicy{Timeout: 3 * time.Millisecond, Retries: 2, Backoff: 200 * time.Microsecond})
	src := mustCreate(t, m, 0, killSpec())
	dst := mustCreate(t, m, 0, shadowSpec(killSpec()))
	vals := make([]float64, 24)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	if st := m.WriteBlock(0, src, []int{0}, []int{24}, vals); st != StatusOK {
		t.Fatalf("seed WriteBlock: %v", st)
	}
	machine.Router().SetLatency(2 * time.Millisecond)

	done := make(chan Status, 1)
	go func() {
		done <- m.Redistribute(0, dst, src, []int{0}, []int{24})
	}()
	time.Sleep(500 * time.Microsecond)
	if err := machine.Router().KillProcessor(1); err != nil {
		t.Fatalf("KillProcessor: %v", err)
	}
	select {
	case st := <-done:
		if st != StatusDown && st != StatusTimeout {
			t.Fatalf("redistribute through a dead owner: status %v, want STATUS_DOWN or STATUS_TIMEOUT", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Redistribute hung after KillProcessor")
	}
}

// TestCloseMidCallSurfacesError closes the whole machine while a
// coordinator is waiting on remote replies — even with no retry policy
// installed, the wait must observe the router's shutdown and return an
// error status rather than deadlock. (The msg-level Close semantics are
// pinned in the msg package; this is the coordinator half.)
func TestCloseMidCallSurfacesError(t *testing.T) {
	machine := vp.NewMachine(4)
	defer machine.Shutdown()
	m := New(machine)
	id := mustCreate(t, m, 0, killSpec())
	machine.Router().SetLatency(5 * time.Millisecond)

	done := make(chan Status, 1)
	go func() {
		_, st := m.ReadBlock(0, id, []int{0}, []int{24})
		done <- st
	}()
	time.Sleep(time.Millisecond)
	machine.Shutdown()
	select {
	case st := <-done:
		if st == StatusOK {
			t.Fatal("ReadBlock returned STATUS_OK across a router close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ReadBlock hung across Close")
	}
}

// TestPooledWriteSnapshots runs several callers at once, each writing
// whole-array values to its own array and reading them back, in two
// modes. On the reliable router the write snapshots come from the
// owners' reply-buffer pools, shared by every caller. Under a fault plan
// that duplicates every message, with no call policy to give the second
// copy a dedup id, each owner applies every write twice; were the
// snapshots still pooled there, the first application would return the
// buffer for reuse while the duplicate still had to read it, and the
// second would return it again, so two later requests could share it
// and one array's values would land in another. Every write must read
// back bit-identical in both modes.
func TestPooledWriteSnapshots(t *testing.T) {
	const p, callers, rounds, n = 4, 4, 40, 64
	for _, dup := range []bool{false, true} {
		t.Run(fmt.Sprintf("dup=%v", dup), func(t *testing.T) {
			machine, m := newTestManager(t, p)
			spec := basicSpec(p)
			spec.Dims = []int{n, n}
			ids := make([]darray.ID, callers)
			for c := range ids {
				ids[c] = mustCreate(t, m, 0, spec) // before any plan: creates must not run twice
			}
			if dup {
				machine.Router().SetFaultPlan(&msg.FaultPlan{Seed: 17, Rule: msg.FaultRule{Dup: 1}})
			}
			lo, hi := []int{0, 0}, []int{n, n}
			errs := make(chan error, callers)
			var wg sync.WaitGroup
			for c, id := range ids {
				wg.Add(1)
				go func(c int, id darray.ID) {
					defer wg.Done()
					vals := make([]float64, n*n)
					got := make([]float64, n*n)
					for r := 0; r < rounds; r++ {
						for i := range vals {
							vals[i] = float64(c<<24 | r<<16 | i)
						}
						if st := m.WriteBlock(0, id, lo, hi, vals); st != StatusOK {
							errs <- fmt.Errorf("caller %d round %d: WriteBlock: %v", c, r, st)
							return
						}
						if st := m.ReadBlockInto(0, id, lo, hi, got); st != StatusOK {
							errs <- fmt.Errorf("caller %d round %d: ReadBlockInto: %v", c, r, st)
							return
						}
						for i := range got {
							if got[i] != vals[i] {
								errs <- fmt.Errorf("caller %d round %d: element %d = %v, wrote %v", c, r, i, got[i], vals[i])
								return
							}
						}
					}
				}(c, id)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if dup && machine.Router().FaultStats().Duplicated == 0 {
				t.Fatal("fault plan duplicated nothing")
			}
		})
	}
}
