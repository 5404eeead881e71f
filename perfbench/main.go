// Command perfbench is the repository's benchmark. It drives the library
// only through its public functions and measures what a user of the
// model waits on: task-level access to distributed arrays, and coupled
// time steps made of distributed calls to SPMD programs.
//
// Run it from the root of a checkout (perfbench/run.sh builds it first):
//
//	perfbench --workload access|coupled|wire|all --seed N --seconds S --trace 0|1
//
// Workloads: access is the seven-class array-access mix on an in-process
// P=4 machine; coupled is the paper's climate coupling on the same
// machine; wire is the access mix on a P=4 machine split over two OS
// processes joined by the TCP transport. Every workload also runs the
// other kind of operation as a shorter companion phase, so each one
// reports every end-to-end metric. An untraced run (--trace 0) prints
// the end-to-end metrics; a traced run (--trace 1) replays sampled
// operations against the lower layers, runs the per-layer probes,
// prints the per-layer metrics and writes its spans as Chrome
// trace-event JSON under --trace-dir. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Exit status: 0 on success, 1 when any result was wrong, 2 on a usage
// or set-up error, 3 when the watchdog ends a stuck run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"

	"repro/internal/cluster"
)

func main() {
	// Worker role first: the wire workload re-executes this binary to
	// host the second part, which must boot a worker and nothing else.
	if cfg, ok := cluster.WorkerConfig(); ok {
		if err := cluster.RunWorker(cfg, partRegister); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		return
	}
	cluster.EnableSelfSpawn()
	os.Exit(run(os.Args[1:], os.Stdout))
}

// gcPercent is the GOGC the in-process workloads run with. The live
// heap is a few MiB, so at the default of 100 the collector starts a
// cycle every few hundred coupled steps, and while it marks it keeps one
// of the two Ps of a two-CPU machine to itself. Whether a step
// overlapped a mark phase then decided its time. In six pairs of 10 s
// coupled runs on a two-vCPU VM, this setting cut the spread between
// runs of the same code from 0.26 of the median to 0.09 for the step
// median, and from 0.31 to 0.06 for ops_per_s. Allocation stays measured
// on its own, as allocs_per_op and runtime.gc_per_kop. The wire parts
// keep the default: their heaps hold the transport's buffers, and at
// this setting the peak resident set of a wire run grew from about
// 32 MB to between 105 and 484 MB.
const gcPercent = 1000

// rareGC sets gcPercent and returns the function that restores the
// previous setting.
func rareGC() (restore func()) {
	prev := debug.SetGCPercent(gcPercent)
	return func() { debug.SetGCPercent(prev) }
}

type options struct {
	seed     uint64
	seconds  int
	trace    bool
	traceDir string
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "access, coupled, wire, or all")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "traces"), "directory for the traced run's Chrome trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	var todo []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (want access, coupled, wire or all)\n", *name)
		return 2
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir}
	code := 0
	for _, w := range todo {
		res, err := runWorkload(w, opt, stdout)
		var mm *mismatchError
		switch {
		case errors.As(err, &mm):
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			res.Correct = false
			res.Metrics = map[string]metric{}
			code = 1
		case err != nil:
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 2
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 2
		}
		fmt.Fprintln(stdout, string(line))
	}
	return code
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runWorkload sets up, warms up, measures both phases, checks the final
// state and, when traced, runs the probes. It prints a human-readable
// report to out and returns the result line.
func runWorkload(w workload, opt options, out io.Writer) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	// The watchdog leaves room for set-up, warm-up and probes around the
	// measured time; a run with --seconds 60 ends within three minutes.
	wd := startWatchdog(60*time.Second, time.Duration(opt.seconds)*time.Second+100*time.Second)
	defer wd.stop()
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%d trace=%v\n", w.name, opt.seed, opt.seconds, opt.trace)

	if w.wire {
		defer onePerPart()()
	} else {
		defer rareGC()()
	}
	// Set up several times: setup_s is the median, so that one slow
	// boot does not decide it. Only the last machine is kept.
	reps := 75
	if w.wire {
		reps = 7
	}
	var (
		b                     *bench
		setupS                []float64
		cStart, cSpawn, cWait []float64
	)
	for i := 0; i < reps; i++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		var st clusterStages
		var err error
		if b, st, err = setUp(w); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		cStart, cSpawn, cWait = append(cStart, st.start), append(cSpawn, st.spawn), append(cWait, st.waitPeers)
		wd.beat(time.Now())
	}
	defer b.close()
	if err := b.mix.prepare(opt.seed); err != nil {
		return res, err
	}
	b.cp.prepare()
	if err := warmUp(b, opt.seed, wd); err != nil {
		return res, err
	}

	var tr *tracer
	var rp *replayer
	if opt.trace {
		tr = newTracer(maxSpans)
		var err error
		if rp, err = newReplayer(b.m, b.mix); err != nil {
			return res, err
		}
	}
	// The phases alternate in nWindows slices: the main phase gets
	// mainShare of every slice.
	total := time.Duration(opt.seconds) * time.Second
	mixSlice := time.Duration(float64(total) * mainShare / nWindows)
	cpSlice := total/nWindows - mixSlice
	if !w.mixMain {
		mixSlice, cpSlice = cpSlice, mixSlice
	}
	mr, cr := newMixRun(opt.seed), newCoupledRun()
	var err error
	for k := 0; k < nWindows && err == nil; k++ {
		if err = mr.run(b, mixSlice, wd, tr, rp); err == nil {
			err = cr.run(b, cpSlice, wd, tr)
		}
	}
	for c := range mr.attempted {
		res.Attempted += mr.attempted[c]
		res.Failed += mr.failed[c]
	}
	res.Attempted += cr.attempted
	res.Failed += cr.failed
	if err != nil {
		return res, err
	}
	if err := b.mix.finalCheck(); err != nil {
		return res, err
	}
	if mr.ops == 0 || cr.ops == 0 {
		return res, errNoSamples
	}
	primary := mr.phaseTotals
	if !w.mixMain {
		primary = cr.phaseTotals
	}

	var pr *probeResults
	if opt.trace {
		if pr, err = runProbes(b, w, wd); err != nil {
			return res, fmt.Errorf("probes: %w", err)
		}
		if w.wire {
			pr.cluster = clusterStages{median(cStart), median(cSpawn), median(cWait)}
		}
	}
	b.close()
	rss := maxRSSMB()

	report(out, w, mr, cr, setupS, cStart, cSpawn, cWait)
	if !opt.trace {
		res.Metrics = endToEnd(w, mr, cr, primary, setupS, rss)
	} else {
		res.Metrics = perLayer(w, mr, cr, rp, pr, primary)
		path := filepath.Join(opt.traceDir, fmt.Sprintf("%s-seed%d.json", w.name, opt.seed))
		if err := writeTrace(tr, path); err != nil {
			return res, err
		}
		fmt.Fprintf(out, "trace: %d spans (%d beyond the cap) written to %s\n", len(tr.spans), tr.dropped, path)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return res, fmt.Errorf("metric %s: %w", name, errNoSamples)
		}
	}
	printMetrics(out, res.Metrics)
	return res, nil
}

// onePerPart gives this process, and the worker parts it spawns, one
// CPU each (GOMAXPROCS=1), as if every part ran on a host of its own.
// With the default, two parts on a two-CPU machine both size their
// runtimes to the whole machine and their schedulers contend: on a
// two-vCPU VM the wire workload then ran about 30% slower and varied
// more between runs. It returns the function that restores the previous
// setting.
func onePerPart() (restore func()) {
	// os.Setenv and os.Unsetenv fail only for an invalid variable name.
	prevEnv, hadEnv := os.LookupEnv("GOMAXPROCS")
	prev := runtime.GOMAXPROCS(1)
	_ = os.Setenv("GOMAXPROCS", "1")
	return func() {
		runtime.GOMAXPROCS(prev)
		if hadEnv {
			_ = os.Setenv("GOMAXPROCS", prevEnv)
		} else {
			_ = os.Unsetenv("GOMAXPROCS")
		}
	}
}

// maxRSSMB is the peak resident set of this process plus the largest of
// its reaped children (the wire workload's worker parts), in MiB.
func maxRSSMB() float64 {
	var self, kids syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &self) != nil || syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids) != nil {
		return 0
	}
	return float64(self.Maxrss+kids.Maxrss) / 1024
}

func writeTrace(tr *tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// endToEnd computes the untraced run's metrics; timings are medians
// over the phase windows.
func endToEnd(w workload, mr *mixRun, cr *coupledRun, primary phaseTotals, setupS []float64, rss float64) map[string]metric {
	opsPerS := cr.opsPerS()
	if w.mixMain {
		opsPerS = mr.opsPerS()
	}
	m := map[string]metric{
		"setup_s":       {median(setupS), "s"},
		"ops_per_s":     {opsPerS, "1/s"},
		"allocs_per_op": {float64(primary.allocs) / float64(primary.ops), "count"},
		"max_rss_mb":    {rss, "MB"},
	}
	for c := range classNames {
		m[classNames[c]+"_p50_us"] = metric{windowed(mr.lat[c], mr.marks[c], 1, median), "us"}
	}
	// A step's two calls run side by side when the host gives the
	// machine both vCPUs at once, and one after the other when it does
	// not, so step times have two modes (about 280 and 450 us on a
	// two-vCPU VM) whose mix follows the host's other guests. The median
	// falls between them: between runs of the same code it moved by up
	// to 0.24 of itself, the lower quartile, inside the side-by-side
	// mode, by half as much.
	m["step_p25_us"] = metric{windowed(cr.step, cr.marks, 1, lowerQuartile), "us"}
	m["call_p50_us"] = metric{windowed(cr.call, cr.marks, 2, median), "us"}
	return m
}

// perLayer computes the traced run's metrics.
func perLayer(w workload, mr *mixRun, cr *coupledRun, rp *replayer, pr *probeResults, primary phaseTotals) map[string]metric {
	m := map[string]metric{}
	kops := float64(primary.ops) / 1000
	for c, name := range classNames {
		lat := summarize(mr.lat[c])
		msgs := mean(mr.msgs[c])
		plan, cp := median(rp.plan[c]), median(rp.copyUs[c])
		m["core."+name+".p99_us"] = metric{lat.P99, "us"}
		m["arraymgr.msgs_per_op."+name] = metric{msgs, "count"}
		m["arraymgr.unattributed_us."+name] = metric{unattributed(lat.P50, plan, cp, msgs, pr.hop), "us"}
		m["darray.plan_us."+name] = metric{plan, "us"}
		m["darray.copy_us."+name] = metric{cp, "us"}
		m["darray.copy_bytes."+name] = metric{mean(rp.copyBytes[c]), "bytes"}
	}
	m["core.step.p99_us"] = metric{summarize(cr.step).P99, "us"}
	m["arraymgr.retransmits_per_kop"] = metric{float64(primary.counters.retry.Retransmits) / kops, "1/kop"}
	m["arraymgr.timeouts_per_kop"] = metric{float64(primary.counters.retry.Timeouts) / kops, "1/kop"}
	m["baseline.copy_gb_s"] = metric{pr.copyGBs, "GB/s"}
	m["msg.hop_us"] = metric{pr.hop, "us"}
	m["wire.encode_us.dense"] = metric{pr.codec.encDense, "us"}
	m["wire.decode_us.dense"] = metric{pr.codec.decDense, "us"}
	m["wire.encode_us.indices"] = metric{pr.codec.encIdx, "us"}
	m["wire.decode_us.indices"] = metric{pr.codec.decIdx, "us"}
	m["net.rtt_us.small"] = metric{pr.rttSmall, "us"}
	m["net.rtt_us.dense"] = metric{pr.rttDense, "us"}
	m["cluster.start_ms"] = metric{pr.cluster.start, "ms"}
	m["cluster.spawn_ms"] = metric{pr.cluster.spawn, "ms"}
	m["cluster.wait_peers_ms"] = metric{pr.cluster.waitPeers, "ms"}
	m["dcall.null_call_us"] = metric{pr.nullCall, "us"}
	m["spmd.halo_us"] = metric{pr.halo, "us"}
	m["spmd.barrier_us"] = metric{pr.barrier, "us"}
	m["climate.seq_step_us"] = metric{pr.seqStep, "us"}
	m["climate.coupling_read_us"] = metric{median(cr.read), "us"}
	m["runtime.gc_per_kop"] = metric{float64(primary.counters.gcs) / kops, "1/kop"}
	m["runtime.gc_pause_us_per_kop"] = metric{float64(primary.counters.gcPauseNs) / 1e3 / kops, "us/kop"}
	m["trace.overhead_pct"] = metric{traceOverhead(w, mr, cr), "%"}
	return m
}

// traceOverhead compares the main phase's traced blocks with its
// untraced blocks: the median over classes (the step, for coupled) of
// the relative difference of their medians, in percent.
func traceOverhead(w workload, mr *mixRun, cr *coupledRun) float64 {
	if !w.mixMain {
		return 100 * (median(cr.traced)/median(cr.untraced) - 1)
	}
	var rel []float64
	for c := range mr.traced {
		if len(mr.traced[c]) > 0 && len(mr.untraced[c]) > 0 {
			rel = append(rel, 100*(median(mr.traced[c])/median(mr.untraced[c])-1))
		}
	}
	return median(rel)
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// report prints per-class counts and timings with their sample counts,
// the counter deltas and the set-up stages.
func report(out io.Writer, w workload, mr *mixRun, cr *coupledRun, setupS, cStart, cSpawn, cWait []float64) {
	phase := func(mix bool) string {
		if mix == w.mixMain {
			return "main"
		}
		return "companion"
	}
	fmt.Fprintf(out, "access mix (%s phase): %d ops completed in %.3f s inside calls\n", phase(true), mr.ops, mr.busy.Seconds())
	fmt.Fprintf(out, "  %-13s %9s %7s %10s %10s %10s  %s\n", "class", "attempted", "failed", "p50_us", "p99_us", "tail_us", "tail")
	for c, name := range classNames {
		s := summarize(mr.lat[c])
		fmt.Fprintf(out, "  %-13s %9d %7d %10.2f %10.2f %10.2f  p%g of n=%d\n", name, mr.attempted[c], mr.failed[c], s.P50, s.P99, s.Tail, s.TailPct, s.N)
	}
	st := summarize(cr.step)
	fmt.Fprintf(out, "coupled (%s phase): %d of %d steps completed in %d episodes, %d failed\n", phase(false), cr.ops, cr.attempted, cr.episodes, cr.failed)
	fmt.Fprintf(out, "  step p25 %.2f us, p50 %.2f us, p99 %.2f us, p%g %.2f us (n=%d); call p50 %.2f us (n=%d)\n",
		st.P25, st.P50, st.P99, st.TailPct, st.Tail, st.N, median(cr.call), len(cr.call))
	for _, p := range []struct {
		name string
		c    counters
	}{{"access mix", mr.counters}, {"coupled", cr.counters}} {
		fmt.Fprintf(out, "%s counters: retransmits %d, timeouts %d, dropped %d, duplicated %d, reordered %d, down-dropped %d, gc %d\n",
			p.name, p.c.retry.Retransmits, p.c.retry.Timeouts, p.c.fault.Dropped, p.c.fault.Duplicated, p.c.fault.Reordered, p.c.fault.DownDropped, p.c.gcs)
	}
	fmt.Fprintf(out, "set-up: median %.4f s over %d set-ups", median(setupS), len(setupS))
	if w.wire {
		fmt.Fprintf(out, " (cluster start %.2f ms, spawn %.2f ms, wait peers %.2f ms)", median(cStart), median(cSpawn), median(cWait))
	}
	fmt.Fprintln(out)
}

func printMetrics(out io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(out, "metric %-36s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
