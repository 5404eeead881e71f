package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arraymgr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/msg"
)

// workload is one named benchmark workload. Every workload runs both
// the access mix and coupled steps on one P=4 machine, so that every
// end-to-end metric is measured on every workload: the main phase gets
// mainShare of the measured time and is what the workload is for, the
// companion phase the rest, in alternating slices.
type workload struct {
	name    string
	wire    bool // two OS processes joined by the TCP transport
	mixMain bool // the access mix is the main phase; otherwise coupled steps are
}

var workloads = []workload{
	{name: "access", mixMain: true},
	{name: "coupled"},
	{name: "wire", wire: true, mixMain: true},
}

const (
	mainShare    = 0.75
	msgSampleOps = 100   // arraymgr.msgs_per_op averages the first ops of each class
	traceBlock   = 64    // traced runs alternate traced and untraced blocks of ops
	replayEvery  = 4     // and replay every replayEvery-th traced op against darray
	maxSpans     = 60000 // spans kept in memory for the Chrome trace
	warmOps      = 600
)

// mismatchError marks a wrong result: the run fails, and the operation
// is not counted as a failed one.
type mismatchError struct{ err error }

func mismatch(err error) error         { return &mismatchError{err} }
func (e *mismatchError) Error() string { return "correctness: " + e.err.Error() }
func (e *mismatchError) Unwrap() error { return e.err }

// bench is one set-up machine with the mix's and the coupling's arrays.
type bench struct {
	m    *core.Machine
	node *cluster.Node // wire only
	mix  *mixState
	cp   *coupledState
	once sync.Once
}

// setUp boots the machine (a two-part cluster on wire) and creates and
// fills all four arrays: the work setup_s measures.
func setUp(w workload) (*bench, clusterStages, error) {
	b := &bench{}
	var st clusterStages
	var err error
	if w.wire {
		if b.node, st, err = bootCluster(); err != nil {
			return nil, st, err
		}
		b.m = b.node.M
	} else {
		b.m = core.New(4)
		if err := registerPrograms(b.m); err != nil {
			b.close()
			return nil, st, err
		}
	}
	if b.mix, err = newMixState(b.m); err == nil {
		b.cp, err = newCoupledState(b.m)
	}
	if err != nil {
		b.close()
		return nil, st, err
	}
	return b, st, nil
}

// close shuts the machine down; on wire it also stops and reaps the
// worker process.
func (b *bench) close() {
	b.once.Do(func() {
		if b.node != nil {
			b.node.Close()
		} else {
			b.m.Close()
		}
	})
}

// counters are the cumulative counters a phase reports as deltas.
type counters struct {
	gcs, gcPauseNs uint64
	retry          arraymgr.RetryStats
	fault          msg.FaultStats
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// heapAllocs is the process's cumulative heap allocation count, read
// without stopping the world.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

func readCounters(m *core.Machine) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{gcs: uint64(ms.NumGC), gcPauseNs: ms.PauseTotalNs, retry: m.AM.RetryStats(), fault: m.VM.Router().FaultStats()}
}

// accumulate adds the change from before to after to c.
func (c *counters) accumulate(before, after counters) {
	c.gcs += after.gcs - before.gcs
	c.gcPauseNs += after.gcPauseNs - before.gcPauseNs
	c.retry.Retransmits += after.retry.Retransmits - before.retry.Retransmits
	c.retry.Timeouts += after.retry.Timeouts - before.retry.Timeouts
	c.fault.Dropped += after.fault.Dropped - before.fault.Dropped
	c.fault.Duplicated += after.fault.Duplicated - before.fault.Duplicated
	c.fault.Reordered += after.fault.Reordered - before.fault.Reordered
	c.fault.DownDropped += after.fault.DownDropped - before.fault.DownDropped
}

// phaseTotals are what every phase reports: operations completed, the
// time spent inside measured calls, and counter deltas. The two phases
// of a workload run in nWindows alternating slices spread over the whole
// run, one window per slice; each timing metric is computed per window
// and the median over windows reported. So both phases see the same
// stretch of machine time, and a burst of outside load that hits one
// window moves the result little.
type phaseTotals struct {
	ops      int
	busy     time.Duration
	allocs   uint64 // counted around the measured calls only
	counters counters
}

const nWindows = 16

// mixRun is the access-mix phase: its place in the operation sequence
// and everything it has measured so far.
type mixRun struct {
	phaseTotals
	g                 *opGen
	o                 op
	next              int                 // index of the next operation in the sequence
	lat               [nClasses][]float64 // us, every completed operation
	traced, untraced  [nClasses][]float64 // us, traced runs only
	attempted, failed [nClasses]int
	msgs              [nClasses][]float64 // router sends of the first msgSampleOps ops
	marks             [nClasses][]int     // len(lat[c]) at the end of each window
}

func newMixRun(seed uint64) *mixRun {
	r := &mixRun{g: newOpGen(seed)}
	for c := range r.lat {
		r.lat[c] = newSamples(sampleCap)
	}
	return r
}

func (r *mixRun) closeWindow() {
	for c := range r.marks {
		r.marks[c] = append(r.marks[c], len(r.lat[c]))
	}
}

// opsPerS is the median over windows of each window's rate over all
// classes' completed operations.
func (r *mixRun) opsPerS() float64 {
	var lo [nClasses]int
	rates := make([]float64, 0, len(r.marks[0]))
	for k := range r.marks[0] {
		var durs []float64
		for c := range r.lat {
			hi := r.marks[c][k]
			durs = append(durs, r.lat[c][lo[c]:hi]...)
			lo[c] = hi
		}
		if len(durs) > 0 {
			rates = append(rates, rate(durs))
		}
	}
	return median(rates)
}

// watchdog ends the process when no operation has completed for stall,
// or the run is older than total: a stuck operation must not hang the
// benchmark.
type watchdog struct {
	last atomic.Int64
	done chan struct{}
	wg   sync.WaitGroup
}

func startWatchdog(stall, total time.Duration) *watchdog {
	w := &watchdog{done: make(chan struct{})}
	begin := time.Now()
	w.beat(begin)
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.done:
				return
			case now := <-tick.C:
				idle := now.Sub(time.Unix(0, w.last.Load()))
				if idle > stall || now.Sub(begin) > total {
					fmt.Fprintf(os.Stderr, "perfbench: watchdog: nothing completed for %v, run %v old; giving up\n",
						idle.Round(time.Millisecond), now.Sub(begin).Round(time.Millisecond))
					os.Exit(3)
				}
			}
		}
	}()
	return w
}

func (w *watchdog) beat(t time.Time) { w.last.Store(t.UnixNano()) }
func (w *watchdog) stop()            { close(w.done); w.wg.Wait() }

// run drives the next slice of the access mix for dur as a closed loop
// with one caller on processor 0, and closes a window. With a tracer,
// even blocks of traceBlock ops record root spans and every
// replayEvery-th of their ops is replayed against darray; odd blocks run
// untraced, for trace.overhead_pct.
func (r *mixRun) run(b *bench, dur time.Duration, wd *watchdog, tr *tracer, rp *replayer) error {
	s, router, o := b.mix, b.m.VM.Router(), &r.o
	c0 := readCounters(b.m)
	a0 := heapAllocs()
	for start := time.Now(); time.Since(start) < dur; r.next++ {
		i := r.next
		r.g.gen(o)
		c := o.cls
		sent0 := router.Sent()
		t0 := time.Now()
		err := s.do(o)
		t1 := time.Now()
		sent := router.Sent() - sent0
		wd.beat(t1)
		d := t1.Sub(t0)
		r.busy += d
		r.attempted[c]++
		if len(r.msgs[c]) < msgSampleOps {
			r.msgs[c] = append(r.msgs[c], float64(sent))
		}
		if err != nil {
			r.failed[c]++
			if err := s.resync(); err != nil {
				return fmt.Errorf("resync after failed %s: %w", classNames[c], err)
			}
			continue
		}
		r.ops++
		r.lat[c] = append(r.lat[c], us(d))
		traced := tr != nil && (i/traceBlock)%2 == 0
		if tr != nil {
			if traced {
				r.traced[c] = append(r.traced[c], us(d))
			} else {
				r.untraced[c] = append(r.untraced[c], us(d))
			}
		}
		if err := s.settle(o); err != nil {
			return mismatch(err)
		}
		if traced {
			tr.add(classNames[c], o.id, 1, t0, t1)
			if i%replayEvery == 0 {
				if err := rp.replay(s, o, tr); err != nil {
					return err
				}
			}
		}
	}
	r.allocs += heapAllocs() - a0
	r.counters.accumulate(c0, readCounters(b.m))
	r.closeWindow()
	return nil
}

// coupledRun is the coupled-step phase and everything it has measured
// so far.
type coupledRun struct {
	phaseTotals
	next              int       // index of the next step
	step, call, read  []float64 // us
	traced, untraced  []float64 // us, traced runs only
	attempted, failed int
	episodes          int
	marks             []int // len(step) at the end of each window
}

func newCoupledRun() *coupledRun {
	return &coupledRun{step: newSamples(sampleCap), call: newSamples(2 * sampleCap), read: newSamples(sampleCap)}
}

func (r *coupledRun) closeWindow() { r.marks = append(r.marks, len(r.step)) }

// opsPerS is the median over windows of each window's step rate.
func (r *coupledRun) opsPerS() float64 { return windowed(r.step, r.marks, 1, rate) }

// run drives whole episodes of episodeSteps coupled steps from the
// initial fields until dur has passed, checking every complete episode
// against the sequential reference, and closes a window. Refill and
// check run between the measured steps.
func (r *coupledRun) run(b *bench, dur time.Duration, wd *watchdog, tr *tracer) error {
	cp := b.cp
	c0 := readCounters(b.m)
	for start := time.Now(); time.Since(start) < dur; r.episodes++ {
		if err := cp.reset(); err != nil {
			return err
		}
		a0 := heapAllocs()
		ok := true
		for k := 0; k < episodeSteps; k, r.next = k+1, r.next+1 {
			t, err := cp.step()
			wd.beat(time.Now())
			r.attempted++
			if err != nil {
				r.failed++
				ok = false
				break
			}
			d := t.end.Sub(t.start)
			r.ops++
			r.busy += d
			r.step = append(r.step, us(d))
			r.read = append(r.read, us(t.readEnd.Sub(t.start)))
			r.call = append(r.call, us(t.oceanEnd.Sub(t.oceanStart)), us(t.atmosEnd.Sub(t.atmosStart)))
			if tr == nil {
				continue
			}
			if (r.next/traceBlock)%2 != 0 {
				r.untraced = append(r.untraced, us(d))
				continue
			}
			r.traced = append(r.traced, us(d))
			id := int64(r.next)
			tr.add("step", id, 1, t.start, t.end)
			tr.add("coupling_read", id, 1, t.start, t.readEnd)
			tr.add("call.ocean", id, 3, t.oceanStart, t.oceanEnd)
			tr.add("call.atmosphere", id, 4, t.atmosStart, t.atmosEnd)
		}
		r.allocs += heapAllocs() - a0
		if ok {
			if err := cp.check(); err != nil {
				return err
			}
		}
	}
	r.counters.accumulate(c0, readCounters(b.m))
	r.closeWindow()
	return nil
}

// warmUp runs mix operations from a sequence of their own and one
// coupled episode, all checked, so pools, sockets and codecs are filled
// before anything is measured.
func warmUp(b *bench, seed uint64, wd *watchdog) error {
	g := newOpGen(seed ^ 0x3a7e)
	var o op
	for i := 0; i < warmOps; i++ {
		g.gen(&o)
		if err := b.mix.do(&o); err != nil {
			return fmt.Errorf("warm-up %s: %w", classNames[o.cls], err)
		}
		wd.beat(time.Now())
		if err := b.mix.settle(&o); err != nil {
			return mismatch(err)
		}
	}
	if err := b.cp.reset(); err != nil {
		return err
	}
	for k := 0; k < episodeSteps; k++ {
		if _, err := b.cp.step(); err != nil {
			return fmt.Errorf("warm-up step: %w", err)
		}
		wd.beat(time.Now())
	}
	return b.cp.check()
}

// errNoSamples reports a phase too short to yield a metric.
var errNoSamples = errors.New("phase produced no samples; raise --seconds")
