package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// fineSlices is the number of equal time slices a measured phase is cut
// into. Rates and quantiles are computed per group of slices and combined
// by their median, so one slice disturbed by a neighbour on the host does
// not move the reported figure.
const fineSlices = 40

// maxGroups bounds the number of slice groups per phase; minGroupSamples
// is the fewest samples a group may hold, so each group's p99 has at least
// a hundred samples beyond it. A phase with fewer samples is one group.
const (
	maxGroups       = 10
	minGroupSamples = 10000
)

// recorder holds one client's samples for one phase. It is owned by a
// single goroutine until the phase ends.
type recorder struct {
	start time.Time
	width time.Duration
	// lat holds latencies in nanoseconds by kind and slice of start time.
	lat [numKinds][fineSlices][]uint32
	// ops counts completed operations by slice of start time.
	ops       [fineSlices]int64
	attempted int64
	failed    int64
	// records counts scanned records; scanNS is their scans' total time.
	records int64
	scanNS  int64
}

func newRecorder(start time.Time, d time.Duration) *recorder {
	w := d / fineSlices
	if w <= 0 {
		w = 1
	}
	return &recorder{start: start, width: w}
}

func (r *recorder) slice(t0 time.Time) int {
	i := int(t0.Sub(r.start) / r.width)
	if i < 0 {
		return 0
	}
	if i >= fineSlices {
		return fineSlices - 1
	}
	return i
}

// observe records one operation that started at t0 and took d. A failed
// operation counts as attempted but leaves no latency sample.
func (r *recorder) observe(k opKind, t0 time.Time, d time.Duration, failed bool) {
	r.attempted++
	if failed {
		r.failed++
		return
	}
	i := r.slice(t0)
	ns := d.Nanoseconds()
	if ns > math.MaxUint32 {
		ns = math.MaxUint32
	}
	r.lat[k][i] = append(r.lat[k][i], uint32(ns))
	r.ops[i]++
}

// phase is the merged result of every client's recorder for one phase.
type phase struct {
	dur       time.Duration
	lat       [numKinds][fineSlices][]uint32
	ops       [fineSlices]int64
	attempted int64
	failed    int64
	records   int64
	scanNS    int64
}

func merge(d time.Duration, recs []*recorder) *phase {
	p := &phase{dur: d}
	for _, r := range recs {
		for k := range r.lat {
			for i := range r.lat[k] {
				p.lat[k][i] = append(p.lat[k][i], r.lat[k][i]...)
			}
		}
		for i := range r.ops {
			p.ops[i] += r.ops[i]
		}
		p.attempted += r.attempted
		p.failed += r.failed
		p.records += r.records
		p.scanNS += r.scanNS
	}
	return p
}

func (p *phase) totalOps() int64 {
	var n int64
	for _, c := range p.ops {
		n += c
	}
	return n
}

// count is the number of completed operations of kind k.
func (p *phase) count(k opKind) int64 {
	var n int64
	for _, s := range p.lat[k] {
		n += int64(len(s))
	}
	return n
}

// opsPerSec is the median over every slice group of the phases of
// completed operations per second.
func opsPerSec(ps []*phase) float64 {
	var rates []float64
	for _, p := range ps {
		rates = append(rates, p.groupRates()...)
	}
	return median(rates)
}

// groupRates is the completed operations per second of each slice group.
func (p *phase) groupRates() []float64 {
	rates := make([]float64, 0, maxGroups)
	width := p.dur.Seconds() / fineSlices
	for g := 0; g < maxGroups; g++ {
		lo, hi := g*fineSlices/maxGroups, (g+1)*fineSlices/maxGroups
		var n int64
		for i := lo; i < hi; i++ {
			n += p.ops[i]
		}
		rates = append(rates, float64(n)/(width*float64(hi-lo)))
	}
	return rates
}

// latency summarizes the samples of the given kinds.
type latency struct {
	// N is the sample count.
	N int `json:"n"`
	// P50US and P99US are medians over the slice groups of every phase of
	// each group's quantile; Groups is the number of groups.
	P50US  float64 `json:"p50_us"`
	P99US  float64 `json:"p99_us"`
	Groups int     `json:"groups"`
	// MeanUS is the mean over every sample.
	MeanUS float64 `json:"mean_us"`
	// P99Groups is each group's p99, in microseconds.
	P99Groups []float64 `json:"p99_groups_us"`
	// Hist counts samples by power-of-two microseconds: entry i counts
	// latencies in [2^(i-1), 2^i) µs, entry 0 those below 1 µs.
	Hist []int `json:"hist_pow2_us"`
}

func latencyOf(ps []*phase, kinds ...opKind) latency {
	var l latency
	var p50s []float64
	var sum float64
	for _, p := range ps {
		var slices [fineSlices][]uint32
		n := 0
		for _, k := range kinds {
			for i := range p.lat[k] {
				slices[i] = append(slices[i], p.lat[k][i]...)
				n += len(p.lat[k][i])
			}
		}
		if n == 0 {
			continue
		}
		l.N += n
		groups := min(max(n/minGroupSamples, 1), maxGroups)
		for g := 0; g < groups; g++ {
			lo, hi := g*fineSlices/groups, (g+1)*fineSlices/groups
			var s []uint32
			for i := lo; i < hi; i++ {
				s = append(s, slices[i]...)
			}
			if len(s) == 0 {
				continue
			}
			sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
			p50s = append(p50s, quantile(s, 0.50)/1e3)
			l.P99Groups = append(l.P99Groups, quantile(s, 0.99)/1e3)
			for _, v := range s {
				sum += float64(v)
				b := bits.Len32(v / 1000)
				for len(l.Hist) <= b {
					l.Hist = append(l.Hist, 0)
				}
				l.Hist[b]++
			}
		}
	}
	if l.N == 0 {
		return l
	}
	l.P50US = median(p50s)
	l.P99US = median(l.P99Groups)
	l.Groups = len(p50s)
	l.MeanUS = sum / float64(l.N) / 1e3
	return l
}

// quantile interpolates the q-quantile of sorted samples.
func quantile(s []uint32, q float64) float64 {
	if len(s) == 1 {
		return float64(s[0])
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return float64(s[len(s)-1])
	}
	f := pos - float64(i)
	return float64(s[i])*(1-f) + float64(s[i+1])*f
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
