package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricSpec names one reported metric. bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts as
// a regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// The timing bounds sit near the 0.25 limit because this class of host
// (two shared vCPUs) changes speed by 10-25% from one run to the next:
// every timing of a run moves together, so no longer window or robust
// statistic cancels it.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"solve_p50_ms", "ms", "lower", 0.24},
	{"solves_per_s", "1/s", "higher", 0.24},
	{"req_p50_ms", "ms", "lower", 0.24},
	{"req_per_s", "1/s", "higher", 0.24},
	{"fail_share", "share", "lower", 0.2},
	{"acc_short_share", "share", "lower", 0.2},
	{"acc_ratio_min", "ratio", "higher", 0.1},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

// Names the per-layer metrics are keyed by. A metric of a family, kernel
// or layer a workload does not exercise reads 0 on that workload.
var (
	metricFamilies = []string{"poisson", "varcoef", "poisson3d"}
	kernelNames    = []string{"down", "up", "sor", "rnorm"}
	precNames      = []string{"f64", "f32"}
)

func perLayerSpecs() []metricSpec {
	var s []metricSpec
	add := func(name, unit, better string) { s = append(s, metricSpec{Name: name, Unit: unit, Better: better}) }
	for _, f := range []string{"poisson", "poisson3d"} {
		add("serve.decode_ms."+f, "ms", "lower")
	}
	for _, f := range []string{"poisson", "poisson3d"} {
		add("serve.encode_ms."+f, "ms", "lower")
	}
	add("serve.wire_p50_ms", "ms", "lower")
	add("serve.solve_share", "share", "higher")
	add("serve.req_bytes", "B", "lower")
	add("serve.resp_bytes", "B", "lower")
	add("serve.shed", "count", "lower")
	for _, f := range metricFamilies {
		add("pbmg.solve_ms."+f, "ms", "lower")
	}
	add("pbmg.solve_p90_ms", "ms", "lower")
	add("pbmg.escalations", "count", "lower")
	add("pbmg.failed", "count", "lower")
	add("pbmg.shed", "count", "lower")
	for _, f := range metricFamilies {
		add("mg.relax_per_solve."+f, "count", "lower")
	}
	for _, f := range metricFamilies {
		add("mg.direct_per_solve."+f, "count", "lower")
	}
	for _, p := range []string{"f64", "f32", "mixed"} {
		add("mg.plan_share."+p, "share", "higher")
	}
	for _, f := range metricFamilies {
		add("mg.model_ratio."+f, "ns/unit", "lower")
	}
	for _, k := range kernelNames {
		for _, f := range metricFamilies {
			for _, p := range precNames {
				add("stencil."+k+"."+f+"."+p+"_ns_pt", "ns", "lower")
			}
			add("stencil."+k+"."+f+".computed_B_pt", "B", "lower")
			add("stencil."+k+"."+f+".computed_flop_per_B", "flop/B", "higher")
		}
	}
	for _, f := range metricFamilies {
		add("stencil.kernel_share."+f, "share", "higher")
	}
	for _, f := range metricFamilies {
		add("direct.solve_us."+f, "us", "lower")
	}
	add("direct.factor_ms", "ms", "lower")
	for _, k := range kernelNames {
		add("sched.pool_speedup."+k, "x", "higher")
	}
	add("sched.steals_per_solve", "count", "lower")
	for _, f := range metricFamilies {
		add("core.tune_s."+f, "s", "lower")
	}
	for _, f := range metricFamilies {
		add("core.digest."+f, "hash", "lower")
	}
	add("load.req_p90_ms", "ms", "lower")
	add("load.send_lag_p99_ms", "ms", "lower")
	add("load.client_decode_ms", "ms", "lower")
	add("trace.solve_p50_ms", "ms", "lower")
	add("trace.solve_p50_ms_untraced", "ms", "lower")
	add("trace.req_p50_ms", "ms", "lower")
	add("trace.req_p50_ms_untraced", "ms", "lower")
	return s
}

// percentile returns the nearest-rank q-quantile of ds (0 when empty).
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// collect returns the field of every answered sample, optionally only of
// family fam (fam < 0: all).
func collect(ss []sample, fam int, f func(sample) time.Duration) []time.Duration {
	var out []time.Duration
	for _, s := range ss {
		if s.answered() && (fam < 0 || s.fam == fam) {
			out = append(out, f(s))
		}
	}
	return out
}

// tally counts a set of samples against the accuracy contract.
type tally struct {
	attempted, errored, shed, short int
	ratioMin                        float64
	unsound                         int // answers that did not even reduce the error
}

func (t *tally) add(ss []sample) {
	if t.attempted == 0 {
		t.ratioMin = math.Inf(1)
	}
	for _, s := range ss {
		t.attempted++
		switch {
		case s.shed:
			t.shed++
		case s.errored:
			t.errored++
		default:
			if s.ratio() < 1 {
				t.short++
			}
			if s.achieved <= 1 {
				t.unsound++
			}
			t.ratioMin = math.Min(t.ratioMin, s.ratio())
		}
	}
}

func (t *tally) failed() int { return t.errored + t.shed + t.short }

// windows is how many equal windows of whole rounds each loop is cut into.
// Timings are taken per window and the median over windows reported, so a
// burst of interference from other work on the host moves one window, not
// the run.
const windows = 8

// perWindow returns f of each window of ss.
func perWindow(ss []sample, f func([]sample) float64) []float64 {
	n := len(ss) / windows
	var vs []float64
	for w := 0; w < windows; w++ {
		vs = append(vs, f(ss[w*n:(w+1)*n]))
	}
	return vs
}

// windowed returns the median over the windows of ss of f.
func windowed(ss []sample, f func([]sample) float64) float64 { return median(perWindow(ss, f)) }

// pct returns f's q-quantile over the answered samples of ss, in ms.
func pct(q float64, f func(sample) time.Duration) func([]sample) float64 {
	return func(ss []sample) float64 { return ms(percentile(collect(ss, -1, f), q)) }
}

// classMedian returns the mean over cell classes of f's median within the
// class, in ms. Solve times cluster by class (a 257² solve at 1e9 takes
// ten times one at 10), and with classes of equal share the pooled median
// falls on the edge between two clusters, where it jumps from run to run;
// each class's median sits inside its cluster.
func classMedian(f func(sample) time.Duration) func([]sample) float64 {
	return func(ss []sample) float64 {
		by := map[int][]time.Duration{}
		for _, s := range ss {
			if s.answered() {
				by[s.class] = append(by[s.class], f(s))
			}
		}
		var sum float64
		for _, ds := range by {
			sum += ms(percentile(ds, 0.5))
		}
		return sum / float64(max(1, len(by)))
	}
}

// rate returns the operations per second of a closed-loop window that
// pass keep.
func rate(keep func(sample) bool) func([]sample) float64 {
	return func(ss []sample) float64 {
		first, last := ss[0].sent, ss[0].done
		n := 0
		for _, s := range ss {
			if s.sent.Before(first) {
				first = s.sent
			}
			if s.done.After(last) {
				last = s.done
			}
			if keep(s) {
				n++
			}
		}
		return float64(n) / last.Sub(first).Seconds()
	}
}

func solveTime(s sample) time.Duration { return s.solve }
func latency(s sample) time.Duration   { return s.lat }

// endToEnd derives the user-visible metrics from an open and a closed
// loop: request latency from the open loop, throughput from the closed
// loop, solve time from both, each the median over windows; grading counts
// every operation.
func endToEnd(open, closed phase) map[string]float64 {
	both := func(f func([]sample) float64) float64 {
		return median(append(perWindow(open.samples, f), perWindow(closed.samples, f)...))
	}
	var t tally
	t.add(open.samples)
	t.add(closed.samples)
	n := float64(t.attempted)
	return map[string]float64{
		"solve_p50_ms":      both(classMedian(solveTime)),
		"pbmg.solve_p90_ms": both(pct(0.90, solveTime)),
		"solves_per_s":      windowed(closed.samples, rate(func(s sample) bool { return s.answered() && s.ratio() >= 1 })),
		"req_p50_ms":        windowed(open.samples, classMedian(latency)),
		"load.req_p90_ms":   windowed(open.samples, pct(0.90, latency)),
		"req_per_s":         windowed(closed.samples, rate(func(sample) bool { return true })),
		"fail_share":        float64(t.failed()) / n,
		"acc_short_share":   float64(t.short) / n,
		"acc_ratio_min":     t.ratioMin,
	}
}

// rssPeak samples the process's resident set every 10ms until stopped and
// keeps the largest value.
type rssPeak struct {
	stop chan struct{}
	done chan struct{}
	max  int64 // bytes; read after done closes
}

// watchRSS starts sampling. The caller owns the sampler and must call
// peakMB, which stops it.
func watchRSS() *rssPeak {
	r := &rssPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			r.max = max(r.max, residentBytes())
			select {
			case <-r.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

// peakMB stops the sampler and returns the peak in MiB.
func (r *rssPeak) peakMB() float64 {
	close(r.stop)
	<-r.done
	return float64(r.max) / (1 << 20)
}

// residentBytes reads the process's resident set from /proc/self/statm.
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64)
	return pages * int64(os.Getpagesize())
}
