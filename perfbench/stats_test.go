package main

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
	}{
		{1000, 99, 990}, // float rounding must not push the rank to 991
		{1000, 50, 500},
		{999, 50, 500},
		{100, 90, 90},
		{10000, 99.9, 9990},
		{7, 100, 7},
		{7, 0, 1},
	} {
		if got := percentile(seq(tc.n), tc.p); got != tc.want {
			t.Errorf("p%g of 1..%d = %g, want %g", tc.p, tc.n, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{50, 50},      // even p90 leaves only 5 beyond
		{100, 90},     // p90 leaves 10, p99 only 1
		{999, 90},     // p99 is rank 990, 9 beyond
		{1000, 99},    // p99 is rank 990, 10 beyond
		{10000, 99.9}, // p99.9 is rank 9990
		{99999, 99.9},
		{100000, 99.99},
	} {
		got := tailPercentile(tc.n)
		if got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if got > 50 && tc.n-rankOf(tc.n, got) < 10 {
			t.Errorf("tailPercentile(%d) = %g leaves fewer than 10 samples beyond", tc.n, got)
		}
	}
}

func TestSummarizeDoesNotReorderInput(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	s := summarize(xs)
	if s.N != 5 || s.P25 != 2 || s.P50 != 3 || s.P99 != 5 || s.TailPct != 50 || s.Tail != 3 {
		t.Errorf("summarize = %+v", s)
	}
	if !slices.Equal(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("summarize sorted its input: %v", xs)
	}
}

func TestWindowedMedianOfWindows(t *testing.T) {
	// Three windows with medians 2, 20 and 200: the burst in the last
	// window does not decide the result.
	xs := []float64{1, 2, 3, 10, 20, 30, 100, 200, 300}
	if got := windowed(xs, []int{3, 6, 9}, 1, median); got != 20 {
		t.Errorf("windowed p50 = %g, want 20", got)
	}
	// Empty windows (a mark repeated) are skipped; k scales the marks.
	if got := windowed(xs, []int{1, 1, 2, 3}, 3, median); got != 20 {
		t.Errorf("windowed with k=3 and an empty window = %g, want 20", got)
	}
}

func TestRateLeavesOutSlowestPercent(t *testing.T) {
	// 99 operations of 10us and one 5ms stall: the stall is left out.
	durs := append(slices.Repeat([]float64{10}, 99), 5000)
	if got := rate(durs); math.Abs(got-1e5) > 1e-6 {
		t.Errorf("rate = %g, want 1e5", got)
	}
	// Under 100 operations nothing is left out: 2 operations in 40us.
	if got := rate([]float64{10, 30}); math.Abs(got-5e4) > 1e-6 {
		t.Errorf("rate = %g, want 5e4", got)
	}
}

func TestUnattributedArithmetic(t *testing.T) {
	// 31.5us median, 2.5us plan, 11us copies, 4 messages of 1.25us.
	if got := unattributed(31.5, 2.5, 11, 4, 1.25); got != 13 {
		t.Errorf("unattributed = %g, want 13", got)
	}
	// Not clamped: probes that overestimate show as a negative share.
	if got := unattributed(10, 8, 4, 2, 0.5); got != -3 {
		t.Errorf("unattributed = %g, want -3", got)
	}
}

// genOps returns the first n operations of seed's sequence, deep-copied.
func genOps(seed uint64, n int) []op {
	g := newOpGen(seed)
	out := make([]op, n)
	for i := range out {
		var o op
		g.gen(&o)
		o.idx = slices.Clone(o.idx)
		for k := range o.idx {
			o.idx[k] = slices.Clone(o.idx[k])
		}
		o.vals = slices.Clone(o.vals)
		out[i] = o
	}
	return out
}

func sameOps(a, b []op) bool {
	return slices.EqualFunc(a, b, func(x, y op) bool {
		return x.cls == y.cls && x.id == y.id && x.lo == y.lo && x.hi == y.hi && x.wbuf == y.wbuf &&
			slices.EqualFunc(x.idx, y.idx, slices.Equal[[]int]) && slices.Equal(x.vals, y.vals)
	})
}

func TestSeedYieldsSameOpSequence(t *testing.T) {
	a, b := genOps(7, 5000), genOps(7, 5000)
	if !sameOps(a, b) {
		t.Fatal("one seed produced two different operation sequences")
	}
	if sameOps(a, genOps(8, 5000)) {
		t.Fatal("seeds 7 and 8 produced the same operation sequence")
	}
}

func TestOpMixAndBounds(t *testing.T) {
	const n = 100000
	var count [nClasses]int
	for _, o := range genOps(3, n) {
		count[o.cls]++
		switch o.cls {
		case readLocal:
			if o.lo[0] < 0 || o.hi[0] > side || o.lo[1] < 0 || o.hi[1] > side || o.hi[0]-o.lo[0] != localSide {
				t.Fatalf("op %d: read_local square %v-%v out of bounds", o.id, o.lo, o.hi)
			}
		case redistOp:
			if o.lo[0] < 0 || o.hi[0] > side || o.hi[0]-o.lo[0] != bandRows || o.hi[1] != side {
				t.Fatalf("op %d: redist band %v-%v out of bounds", o.id, o.lo, o.hi)
			}
		case gatherOp, scatterOp:
			for _, ix := range o.idx {
				if ix[0] < 0 || ix[0] >= side || ix[1] < 0 || ix[1] >= side {
					t.Fatalf("op %d: index %v out of bounds", o.id, ix)
				}
			}
		}
	}
	for c, w := range classWeights {
		if got := 100 * float64(count[c]) / n; math.Abs(got-float64(w)) > 0.5 {
			t.Errorf("%s is %.2f%% of the mix, want %d%%", classNames[c], got, w)
		}
	}
}

func TestOpGenAllocatesNothing(t *testing.T) {
	g := newOpGen(1)
	var o op
	if allocs := testing.AllocsPerRun(1000, func() { g.gen(&o) }); allocs != 0 {
		t.Errorf("gen allocates %.1f times per operation", allocs)
	}
}

func TestLatticeCount(t *testing.T) {
	if got := latticeCount([]int{0, 0}, []int{128, 128}, []int{2, 2}); got != 64*64 {
		t.Errorf("strided count = %d", got)
	}
	if got := latticeCount([]int{3, 5}, []int{11, 8}, nil); got != 24 {
		t.Errorf("dense count = %d", got)
	}
	if got := latticeCount([]int{1}, []int{8}, []int{3}); got != 3 { // 1, 4, 7
		t.Errorf("odd strided count = %d", got)
	}
}

func TestChromeTraceParsesAndPairsSpans(t *testing.T) {
	tr := newTracer(3)
	t0 := tr.origin
	tr.add("read_dense", 4, 1, t0.Add(10*time.Microsecond), t0.Add(40*time.Microsecond))
	tr.add("darray.plan.read_dense", 4, 2, t0.Add(50*time.Microsecond), t0.Add(52500*time.Nanosecond))
	tr.add("darray.copy.read_dense", 4, 2, t0.Add(60*time.Microsecond), t0.Add(70*time.Microsecond))
	tr.add("beyond the cap", 5, 1, t0, t0)
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		OtherData   struct {
			Dropped int `json:"dropped_spans"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 3 || doc.OtherData.Dropped != 1 {
		t.Fatalf("got %d events, %d dropped; want 3 and 1", len(doc.TraceEvents), doc.OtherData.Dropped)
	}
	root := doc.TraceEvents[0]
	if root.Ph != "X" || root.Ts != 10 || root.Dur != 30 || root.Tid != 1 {
		t.Errorf("root event = %+v", root)
	}
	if plan := doc.TraceEvents[1]; plan.Dur != 2.5 || plan.Tid != 2 {
		t.Errorf("plan event = %+v", plan)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Args["op"] != 4 {
			t.Errorf("event %q carries op %d, want 4", ev.Name, ev.Args["op"])
		}
	}
}

// TestMsgsPerOpRepeatsInProcess runs the same seed on two fresh
// in-process machines: the router send counts of the sampled operations,
// and so arraymgr.msgs_per_op, must repeat exactly.
func TestMsgsPerOpRepeatsInProcess(t *testing.T) {
	wd := startWatchdog(time.Minute, 2*time.Minute)
	defer wd.stop()
	var runs [2]*mixRun
	for i := range runs {
		b, _, err := setUp(workloads[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := b.mix.prepare(5); err != nil {
			t.Fatal(err)
		}
		runs[i] = newMixRun(5)
		if err := runs[i].run(b, time.Second, wd, nil, nil); err != nil {
			t.Fatal(err)
		}
		if err := b.mix.finalCheck(); err != nil {
			t.Fatal(err)
		}
		b.close()
	}
	for c, name := range classNames {
		a, b := runs[0].msgs[c], runs[1].msgs[c]
		// A slow build (say, under -race) may sample fewer than
		// msgSampleOps ops in the time given: compare the common prefix.
		n := min(len(a), len(b))
		if n < 10 {
			t.Fatalf("%s: only %d sampled ops", name, n)
		}
		if !slices.Equal(a[:n], b[:n]) {
			t.Errorf("%s: message counts differ between runs of one seed", name)
		}
	}
}
