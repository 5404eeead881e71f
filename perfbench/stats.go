package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// sampleCap is the room newSamples reserves for one series of samples:
// more than two million, beyond what a 60 s run records. Pages are
// committed only as samples are written.
const sampleCap = 1 << 21

// newSamples returns an empty series with room for n samples, in memory
// mapped outside the Go heap. A run keeps every sample it takes; on the
// heap those series would grow the live heap as the run goes on, by
// doublings that come sooner on a faster host, and with it the
// collector's pacing, which sets the next cycle at a share of the live
// heap, and the peak resident set: on a two-vCPU VM max_rss_mb of runs
// of the same code fell into two groups 10% apart by whether the last
// doubling came before the run ended. Off the heap the collector sees
// only the library's memory and the benchmark's fixed buffers.
// Appending beyond n moves the series onto the heap, as append does.
func newSamples(n int) []float64 {
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]float64, 0, n)
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(b))), n)[:0]
}

// percentile returns the nearest-rank p-th percentile of sorted: the
// smallest sample with at least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	k := rankOf(n, p) - 1
	return sorted[min(max(k, 0), n-1)]
}

// rankOf is the 1-based nearest rank of percentile p among n samples,
// computed in integer parts-per-100000 so that, say, p99 of 1000 samples
// is rank 990 exactly rather than 991 through float rounding.
func rankOf(n int, p float64) int {
	pp := int64(math.Round(p * 1000))
	return int((pp*int64(n) + 99999) / 100000)
}

// tailLadder lists the percentiles a tail is reported at, lowest first.
var tailLadder = []float64{90, 99, 99.9, 99.99, 99.999}

// tailPercentile returns the highest percentile of tailLadder that leaves
// at least ten samples beyond it among n samples, or 50 when even p90
// does not.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range tailLadder {
		if n-rankOf(n, p) < 10 {
			break
		}
		best = p
	}
	return best
}

// summary is one timing distribution: its sample count, lower quartile,
// median, p99 and the highest percentile with at least ten samples
// beyond it.
type summary struct {
	N       int
	P25     float64
	P50     float64
	P99     float64
	TailPct float64
	Tail    float64
}

// summarize sorts a copy of xs and reads off the summary.
func summarize(xs []float64) summary {
	s := slices.Clone(xs)
	slices.Sort(s)
	tp := tailPercentile(len(s))
	return summary{N: len(s), P25: percentile(s, 25), P50: percentile(s, 50), P99: percentile(s, 99), TailPct: tp, Tail: percentile(s, tp)}
}

// median is the 50th percentile of xs (NaN when empty).
func median(xs []float64) float64 { return summarize(xs).P50 }

// lowerQuartile is the 25th percentile of xs (NaN when empty).
func lowerQuartile(xs []float64) float64 { return summarize(xs).P25 }

// windowed applies stat to each window of xs, whose windows end at the
// indices in marks (times k: each window holds k samples per mark), and
// returns the median over the non-empty windows.
func windowed(xs []float64, marks []int, k int, stat func([]float64) float64) float64 {
	vals := make([]float64, 0, len(marks))
	lo := 0
	for _, m := range marks {
		if hi := m * k; hi > lo {
			vals = append(vals, stat(xs[lo:hi]))
			lo = hi
		}
	}
	return median(vals)
}

// trimPct is the share, in percent, of each window's slowest operations
// that rate leaves out. On a shared VM they are stalls of several
// milliseconds while the host runs other guests; how many there are
// changes with the neighbours' load, and with them in, the spread of
// ops_per_s between runs of the same code reached 0.23.
const trimPct = 1

// rate is the throughput of one window of operation latencies (us):
// operations per second spent inside measured calls, leaving out the
// slowest trimPct percent.
func rate(durs []float64) float64 {
	s := slices.Clone(durs)
	slices.Sort(s)
	kept := s[:len(s)-len(s)*trimPct/100]
	total := 0.0
	for _, d := range kept {
		total += d
	}
	return float64(len(kept)) / total * 1e6
}

// unattributed is the share of an operation's median time that the
// replayed layer probes do not account for: the median minus the
// planning time, the section-copy time and msgs hops of hopUs each. What
// remains is coordinator and owner-server work, scheduling and wake-ups.
// It is not clamped: a negative value means the probes overestimate.
func unattributed(p50, planUs, copyUs, msgs, hopUs float64) float64 {
	return p50 - (planUs + copyUs + msgs*hopUs)
}

// span is one traced interval. Root spans (one per operation) and their
// child spans share the operation id; track separates the measured calls
// (track 1) from replays of an operation's inputs against lower layers
// (track 2), which run after the operation returns.
type span struct {
	Name       string
	Op         int64
	Track      int
	Start, End time.Duration // since the tracer's origin
}

// tracer keeps spans in memory up to a cap and writes them as Chrome
// trace-event JSON when the run ends.
type tracer struct {
	origin  time.Time
	spans   []span
	cap     int
	dropped int
}

func newTracer(capacity int) *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, capacity), cap: capacity}
}

// add records one span; once the cap is reached further spans are only
// counted.
func (t *tracer) add(name string, op int64, track int, start, end time.Time) {
	if t == nil {
		return
	}
	if len(t.spans) >= t.cap {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Track: track, Start: start.Sub(t.origin), End: end.Sub(t.origin)})
}

type chromeEvent struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	Ts   float64          `json:"ts"`
	Dur  float64          `json:"dur"`
	Pid  int              `json:"pid"`
	Tid  int              `json:"tid"`
	Args map[string]int64 `json:"args"`
}

// writeChrome writes the spans as a Chrome trace-event document
// (complete "X" events, microsecond timestamps), viewable in Perfetto.
func (t *tracer) writeChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, `{"displayTimeUnit":"ns","traceEvents":[`); err != nil {
		return err
	}
	enc := json.NewEncoder(bw)
	for i, s := range t.spans {
		if i > 0 {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		ev := chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Track,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int64{"op": s.Op},
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(bw, `],"otherData":{"dropped_spans":%d}}`+"\n", t.dropped); err != nil {
		return err
	}
	return bw.Flush()
}
