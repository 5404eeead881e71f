package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/apps/climate"
	"repro/internal/arraymgr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dcall"
	"repro/internal/grid"
	"repro/internal/msg"
	msgnet "repro/internal/msg/net"
	"repro/internal/msg/wire"
	"repro/internal/spmd"
)

// Programs the benchmark registers on every part next to climate's.
const (
	progNull = "perfbench:null" // returns at once; its cost is the call itself
	progHalo = "perfbench:halo" // times HaloExchange and Barrier on the field
)

// probeTag is private to the benchmark: no server of the library
// receives messages of this call id.
var probeTag = msg.Tag{Class: msg.ClassTask, Call: 1 << 62, Kind: 1}

const probeWait = 10 * time.Second

// registerPrograms registers every program the benchmark calls.
func registerPrograms(m *core.Machine) error {
	if err := climate.RegisterPrograms(m); err != nil {
		return err
	}
	if err := m.Register(progNull, func(w *spmd.World, a *dcall.Args) { _ = a.Section(0) }); err != nil {
		return err
	}
	return m.Register(progHalo, haloProgram)
}

// partRegister is the per-part set-up of a cluster part, the same on the
// driver and on every worker: the programs, and the call policy the
// repository's cluster entry point installs, so a lost reply becomes a
// failed operation rather than a hang.
func partRegister(m *core.Machine) error {
	if err := registerPrograms(m); err != nil {
		return err
	}
	m.SetCallPolicy(&arraymgr.CallPolicy{Timeout: 2 * time.Second, Retries: 3})
	return nil
}

// haloTimes receives the per-iteration times rank 0 measures inside
// progHalo.
type haloTimes struct{ halo, barrier []float64 }

// haloProgram: parameters (iters, *haloTimes, status, local(field)). It
// exchanges the field's halo rows iters times, then runs iters barriers.
func haloProgram(w *spmd.World, a *dcall.Args) {
	iters, out, sec := a.Int(0), a.Const(1).(*haloTimes), a.Section(3)
	l := side / w.Size()
	h := spmd.Halo{
		Section: sec, LocalDims: []int{l, side}, Borders: []int{1, 1, 0, 0},
		GridDims: []int{w.Size(), 1}, Indexing: grid.RowMajor, GridIndexing: grid.RowMajor,
	}
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		if err := w.HaloExchange(h); err != nil {
			a.SetStatus(2, dcall.StatusError)
			return
		}
		if w.Rank() == 0 {
			out.halo = append(out.halo, us(time.Since(t0)))
		}
	}
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		if err := w.Barrier(); err != nil {
			a.SetStatus(2, dcall.StatusError)
			return
		}
		if w.Rank() == 0 {
			out.barrier = append(out.barrier, us(time.Since(t0)))
		}
	}
}

// clusterStages are the set-up stages of a two-part cluster, in ms.
type clusterStages struct{ start, spawn, waitPeers float64 }

// bootCluster starts a P=4 machine across two OS processes with the
// production transport: this process hosts processors 0-1 and a
// re-executed copy of this binary hosts 2-3.
func bootCluster() (*cluster.Node, clusterStages, error) {
	var st clusterStages
	t0 := time.Now()
	node, err := cluster.StartDriver(cluster.Config{P: 4, NParts: 2}, partRegister)
	if err != nil {
		return nil, st, fmt.Errorf("start driver: %w", err)
	}
	t1 := time.Now()
	if err := node.SpawnWorkers(); err != nil {
		node.Close()
		return nil, st, fmt.Errorf("spawn workers: %w", err)
	}
	t2 := time.Now()
	if err := node.WaitPeers(30 * time.Second); err != nil {
		node.Close()
		return nil, st, err
	}
	t3 := time.Now()
	st = clusterStages{start: ms(t1.Sub(t0)), spawn: ms(t2.Sub(t1)), waitPeers: ms(t3.Sub(t2))}
	return node, st, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// probeClusterBoot boots and closes a two-part cluster n times and
// returns each stage's median.
func probeClusterBoot(n int) (clusterStages, error) {
	var start, spawn, wait []float64
	for i := 0; i < n; i++ {
		node, st, err := bootCluster()
		if err != nil {
			return clusterStages{}, err
		}
		node.Close()
		start, spawn, wait = append(start, st.start), append(spawn, st.spawn), append(wait, st.waitPeers)
	}
	return clusterStages{median(start), median(spawn), median(wait)}, nil
}

// pingPong times n round trips from processor 0 to an echo on processor
// 1 of the given routers (the same router in process, two routers joined
// by a transport otherwise) and returns the median round trip in us.
func pingPong(r0, r1 *msg.Router, payload any, n int) (float64, error) {
	echoErr := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			m, err := r1.RecvFromTimeout(1, 0, probeTag, probeWait)
			if err == nil {
				err = r1.Send(1, 0, probeTag, m.Data)
			}
			if err != nil {
				echoErr <- err
				return
			}
		}
		echoErr <- nil
	}()
	rtt := make([]float64, 0, n)
	var err error
	for i := 0; i < n && err == nil; i++ {
		t0 := time.Now()
		if err = r0.Send(0, 1, probeTag, payload); err == nil {
			_, err = r0.RecvFromTimeout(0, 1, probeTag, probeWait)
		}
		rtt = append(rtt, us(time.Since(t0)))
	}
	if eerr := <-echoErr; err == nil {
		err = eerr
	}
	return median(rtt), err
}

// probeHop is msg.hop_us: half the median in-process round trip between
// processors 0 and 1.
func probeHop(r *msg.Router) (float64, error) {
	rtt, err := pingPong(r, r, 0, 2000)
	return rtt / 2, err
}

// probeNet is net.rtt_us.small and net.rtt_us.dense: round trips over a
// loopback Listen/Dial pair with the production options, one processor
// per part.
func probeNet() (small, dense float64, err error) {
	t0, err := msgnet.Listen("127.0.0.1:0", 2, 2)
	if err != nil {
		return 0, 0, err
	}
	r0, r1 := msg.NewRouter(2), msg.NewRouter(2)
	r0.SetTransport(t0, msgnet.HostedMap(2, 2, 0))
	t0.Attach(r0)
	t1, err := msgnet.Dial(t0.Addr(), 2, 2, 1)
	if err != nil {
		t0.Close()
		r0.Close()
		return 0, 0, err
	}
	r1.SetTransport(t1, msgnet.HostedMap(2, 2, 1))
	t1.Attach(r1)
	defer func() {
		t0.Shutdown()
		r0.Close()
		r1.Close()
		t0.Wait()
		t1.Wait()
	}()
	if err = t0.WaitPeers(probeWait); err != nil {
		return 0, 0, err
	}
	if _, err = pingPong(r0, r1, make([]float64, side*side), 50); err != nil { // warm buffers
		return 0, 0, err
	}
	if small, err = pingPong(r0, r1, []float64{1}, 2000); err != nil {
		return 0, 0, err
	}
	dense, err = pingPong(r0, r1, make([]float64, side*side), 300)
	return small, dense, err
}

// codecTimes are the wire codec's median encode and decode times.
type codecTimes struct{ encDense, decDense, encIdx, decIdx float64 }

// probeCodec times wire.AppendAny/ReadAny of a 128 KiB []float64 and of
// 64 index rows, the payload shapes of dense and indexed operations.
func probeCodec() (codecTimes, error) {
	dense := make([]float64, side*side)
	for i := range dense {
		dense[i] = float64(i) / 3
	}
	rows := make([][]int, nIdx)
	for i := range rows {
		rows[i] = []int{i % side, (7 * i) % side}
	}
	var ct codecTimes
	var err error
	time1 := func(v any, n int) (enc, dec float64) {
		var b []byte
		es, ds := make([]float64, 0, n), make([]float64, 0, n)
		for i := 0; i < n && err == nil; i++ {
			t0 := time.Now()
			b, err = wire.AppendAny(b[:0], v, false)
			t1 := time.Now()
			if err == nil {
				_, _, err = wire.ReadAny(b)
			}
			es, ds = append(es, us(t1.Sub(t0))), append(ds, us(time.Since(t1)))
		}
		return median(es), median(ds)
	}
	ct.encDense, ct.decDense = time1(dense, 400)
	ct.encIdx, ct.decIdx = time1(rows, 4000)
	return ct, err
}

// probeCalls is dcall.null_call_us, spmd.halo_us and spmd.barrier_us on
// the coupled field's ocean group.
func probeCalls(c *coupledState) (null, halo, barrier float64, err error) {
	calls := make([]float64, 0, 1000)
	for i := 0; i < 1000; i++ {
		t0 := time.Now()
		if err = c.m.Call(c.oceanProcs, progNull, c.ocean.Param()); err != nil {
			return 0, 0, 0, err
		}
		calls = append(calls, us(time.Since(t0)))
	}
	var ht haloTimes
	if err = c.m.Call(c.oceanProcs, progHalo, dcall.Const(1000), dcall.Const(&ht), dcall.Status(), c.ocean.Param()); err != nil {
		return 0, 0, 0, err
	}
	if len(ht.halo) == 0 || len(ht.barrier) == 0 {
		return 0, 0, 0, errors.New("halo probe recorded no times")
	}
	return median(calls), median(ht.halo), median(ht.barrier), nil
}

// probeSeqStep is climate.seq_step_us: the single-threaded reference's
// time per coupled step, net of its set-up.
func probeSeqStep() float64 {
	const steps = 10
	per := make([]float64, 0, 9)
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		climate.RunSequential(climate.Config{Rows: side, Cols: side, Steps: 0, Alpha: alpha})
		t1 := time.Now()
		climate.RunSequential(climate.Config{Rows: side, Cols: side, Steps: steps, Alpha: alpha})
		per = append(per, (us(time.Since(t1))-us(t1.Sub(t0)))/steps)
	}
	return median(per)
}

// probeCopy is baseline.copy_gb_s: a plain single-threaded copy of a
// 128 KiB slice, the floor for a whole-array read.
func probeCopy() float64 {
	src, dst := make([]float64, side*side), make([]float64, side*side)
	for i := range src {
		src[i] = float64(i)
	}
	const reps = 200
	rates := make([]float64, 0, 15)
	for i := 0; i < 15; i++ {
		t0 := time.Now()
		for k := 0; k < reps; k++ {
			copy(dst, src)
		}
		rates = append(rates, float64(8*len(src)*reps)/float64(time.Since(t0).Nanoseconds()))
	}
	return median(rates)
}

// probeResults are the standalone per-layer probes of a traced run.
type probeResults struct {
	hop, rttSmall, rttDense float64
	codec                   codecTimes
	cluster                 clusterStages
	nullCall, halo, barrier float64
	seqStep, copyGBs        float64
}

// runProbes runs every standalone probe after the measured phases. The
// cluster probe boots its own two-part clusters; the wire workload
// replaces its numbers with those of its own set-ups.
func runProbes(b *bench, w workload, wd *watchdog) (*probeResults, error) {
	pr := &probeResults{}
	var err error
	step := func(f func() error) {
		if err == nil {
			err = f()
			wd.beat(time.Now())
		}
	}
	step(func() (e error) { pr.hop, e = probeHop(b.m.VM.Router()); return })
	step(func() (e error) { pr.codec, e = probeCodec(); return })
	step(func() (e error) { pr.rttSmall, pr.rttDense, e = probeNet(); return })
	step(func() (e error) { pr.nullCall, pr.halo, pr.barrier, e = probeCalls(b.cp); return })
	step(func() error { pr.seqStep = probeSeqStep(); return nil })
	step(func() error { pr.copyGBs = probeCopy(); return nil })
	if !w.wire {
		step(func() (e error) { pr.cluster, e = probeClusterBoot(3); return })
	}
	return pr, err
}
