package main

import (
	"math"
	"sort"
	"time"
)

// metric is one named number with its unit and the samples behind it.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// opRec is one completed operation of a measured phase.
type opRec struct {
	end  time.Duration // completion time since the phase began
	lat  time.Duration
	qid  int32
	ver  int32  // model version that answered (served workloads)
	hash uint64 // hashRanked of the answer
	bad  bool   // transport error, non-2xx or unreadable answer
}

// recsCap is the room a phase reserves for its records before it starts. The
// records are most of the benchmark's live heap, and the live heap sets the
// garbage collector's pace; reserved up front it is the same size from the
// first operation to the last and from run to run, where a slice grown by
// append made plan_cold's throughput depend on when it last doubled.
const recsCap = 1 << 19

// phase is one measured interval: the operations each client completed and,
// for serve_churn, the writes beside them.
type phase struct {
	elapsed time.Duration
	ops     [][]opRec // per client
	writes  []opRec
}

func (p *phase) count() int {
	n := 0
	for _, c := range p.ops {
		n += len(c)
	}
	return n
}

// quantile is the nearest-rank q-quantile of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// p99Segments is how many equal pieces the measured time is cut into for
// lat_p99_us.
const p99Segments = 10

// latencies returns the phase's throughput, median latency and tail latency.
// The tail is the median over p99Segments equal segments of each segment's
// nearest-rank p99: one stall then moves one segment's value, not the
// metric. A segment with under 100 operations has its maximum as p99; empty
// segments are left out.
func (p *phase) latencies() (opsPerS, p50us, p99us float64, n int) {
	var all []float64
	segs := make([][]float64, p99Segments)
	for _, c := range p.ops {
		for _, r := range c {
			us := micros(r.lat)
			all = append(all, us)
			s := int(int64(r.end) * p99Segments / int64(p.elapsed+1))
			if s >= p99Segments {
				s = p99Segments - 1
			}
			segs[s] = append(segs[s], us)
		}
	}
	sort.Float64s(all)
	var tails []float64
	for _, s := range segs {
		if len(s) > 0 {
			sort.Float64s(s)
			tails = append(tails, quantile(s, 0.99))
		}
	}
	return float64(len(all)) / p.elapsed.Seconds(), quantile(all, 0.5), median(tails), len(all)
}

// timeMedian runs f reps times and returns the median duration.
func timeMedian(reps int, f func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
