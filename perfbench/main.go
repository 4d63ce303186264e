// Command perfbench is the pbmg benchmark: it tunes the solver's tables,
// drives one workload through the library or the HTTP front end, grades
// every answer against a reference solution, and prints one JSON result
// line. See README.md for the workloads and every metric.
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload solve-large --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is what a run appends to runs.jsonl: enough to tell whether
// two runs measured the same tables on the same host.
type runRecord struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Host     host               `json:"host"`
	Sizes    map[string]int     `json:"sizes"`
	Digests  map[string]string  `json:"digests"`
	Metrics  map[string]float64 `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: solve-large or http-small")
		seed    = flag.Int64("seed", 1, "seed the inputs are drawn from")
		seconds = flag.Int("seconds", 30, "measured seconds")
		traced  = flag.Int("trace", 0, "1: report per-layer metrics instead of end-to-end ones")
		out     = flag.String("out", ".bench_build/perfbench-out", "directory for tuned tables, spans and run records")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fatal(fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1"))
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *out)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run sets up, measures and grades one workload.
func run(w *workload, seed int64, dur time.Duration, traced bool, out string) (*result, error) {
	start := time.Now()
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	// The watchdog bounds the whole measurement: a stuck solve cancels at
	// its next cycle boundary instead of hanging the run.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()

	h := readHost()
	fmt.Printf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s l3=%s\n", h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.L3)

	var cat *catalog
	var setupS []float64
	for r := 0; r < w.setupReps; r++ {
		if cat != nil {
			cat.close()
		}
		t0 := time.Now()
		c, err := setup(w, filepath.Join(out, "tables-"+w.name))
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		cat = c
	}
	defer cat.close()

	ins, err := drawInputs(w, cat)
	if err != nil {
		return nil, fmt.Errorf("drawing inputs: %w", err)
	}
	cells := round(w, ins, seed)
	R := len(cells)
	nOpen, nClosed := opsFor(w.rate, dur/2, R*windows), opsFor(w.capacity, dur/2, R*windows)
	var op opFunc
	if w.http {
		if err := buildBodies(w, ins); err != nil {
			return nil, err
		}
		cl := newHTTPClient(w.callers)
		defer cl.CloseIdleConnections()
		op = httpOp(cl, cat.url, cells)
	} else {
		op = inprocOp(cat, cells)
	}
	// One untimed round fills the factor cache and the scratch pools. Then
	// setup's garbage goes back to the OS, so peak_rss_mb is the serving
	// footprint and does not depend on when the collector ran during tuning.
	closedLoop(ctx, op, int64(R), w.callers, nil)
	runtime.GC()
	debug.FreeOSMemory()
	before := cat.counters(ctx)
	ticks0, steal0 := cpuTicks()

	m := map[string]float64{}
	var all []sample
	if !traced {
		rss := watchRSS()
		open := openLoop(ctx, op, nOpen, w.rate, w.callers, nil)
		closed := closedLoop(ctx, op, nClosed, w.callers, nil)
		m = endToEnd(open, closed)
		m["setup_s"] = median(setupS)
		m["peak_rss_mb"] = rss.peakMB()
		all = append(open.samples, closed.samples...)
	} else {
		// Half the work untraced, half with spans: the difference is the
		// tracing overhead.
		nOpen, nClosed = opsFor(w.rate, dur/4, R*windows), opsFor(w.capacity, dur/4, R*windows)
		uOpen := openLoop(ctx, op, nOpen, w.rate, w.callers, nil)
		uClosed := closedLoop(ctx, op, nClosed, w.callers, nil)
		tr := newTracer()
		activeSpans.Store(tr)
		tOpen := openLoop(ctx, op, nOpen, w.rate, w.callers, tr)
		tClosed := closedLoop(ctx, op, nClosed, w.callers, tr)
		activeSpans.Store(nil)
		after := cat.counters(ctx)
		untraced, withSpans := endToEnd(uOpen, uClosed), endToEnd(tOpen, tClosed)
		m["trace.solve_p50_ms"] = withSpans["solve_p50_ms"]
		m["trace.solve_p50_ms_untraced"] = untraced["solve_p50_ms"]
		m["trace.req_p50_ms"] = withSpans["req_p50_ms"]
		m["trace.req_p50_ms_untraced"] = untraced["req_p50_ms"]
		// The tails come from the untraced half, like the end-to-end metrics.
		m["pbmg.solve_p90_ms"] = untraced["pbmg.solve_p90_ms"]
		m["load.req_p90_ms"] = untraced["load.req_p90_ms"]
		all = append(append(append(uOpen.samples, uClosed.samples...), tOpen.samples...), tClosed.samples...)
		open := append(uOpen.samples, tOpen.samples...)
		measureLayers(w, cat, cells, ins, all, open, after.minus(before), m)
		spans := filepath.Join(out, fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))
		if err := tr.write(spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.spans), spans)
	}

	ticks1, steal1 := cpuTicks()
	if ticks1 > ticks0 {
		// Time the hypervisor gave to other guests slows every timing here;
		// compare runs whose steal shares differ with care.
		m["host.steal_share"] = float64(steal1-steal0) / float64(ticks1-ticks0)
		fmt.Printf("host: %.1f%% of CPU time stolen by other guests during the measured loops\n", 100*m["host.steal_share"])
	}
	var t tally
	t.add(all)
	res := &result{
		// Correct: every operation was answered, and every answer was
		// graded and cut the initial error. Accuracy shortfalls against the
		// target are contract misses counted in failed, not wrong answers.
		Correct:   t.errored == 0 && t.shed == 0 && t.unsound == 0,
		Attempted: t.attempted,
		Failed:    t.failed(),
		Metrics:   map[string]metricValue{},
	}
	specs := endToEndSpecs
	if traced {
		specs = perLayerSpecs()
	}
	for _, s := range specs {
		v := m[s.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	fmt.Printf("graded: %d attempted, %d short of target, %d errored, %d shed, %d unsound\n",
		t.attempted, t.short, t.errored, t.shed, t.unsound)
	printShortfalls(w, all)
	rec := runRecord{Workload: w.name, Seed: seed, Trace: traced, Host: h, Sizes: map[string]int{}, Digests: map[string]string{}, Metrics: m}
	for i, fs := range w.families {
		rec.Sizes[fs.name()] = fs.n
		rec.Digests[fs.name()] = cat.digests[i]
		fmt.Printf("table: %s N=%d digest=%s tune=%.2fs\n", fs.name(), fs.n, cat.digests[i], cat.tuneS[i])
	}
	if err := appendRecord(filepath.Join(out, "runs.jsonl"), rec); err != nil {
		return nil, err
	}
	fmt.Printf("run: %.1fs, setup %.1fs, %d operations per round\n", time.Since(start).Seconds(), median(setupS), R)
	return res, nil
}

// appendRecord compares rec with the last recorded run of the same
// workload, says whether the two are comparable, and appends rec.
func appendRecord(path string, rec runRecord) error {
	if f, err := os.Open(path); err == nil {
		var prev *runRecord
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var r runRecord
			if json.Unmarshal(sc.Bytes(), &r) == nil && r.Workload == rec.Workload {
				prev = &r
			}
		}
		f.Close()
		if prev != nil {
			fmt.Println(comparable(*prev, rec))
		}
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// comparable explains whether two runs measured the same tables on the
// same kind of host.
func comparable(a, b runRecord) string {
	if a.Host != b.Host {
		return fmt.Sprintf("NOT COMPARABLE with the previous %s run: host %+v, previously %+v", b.Workload, b.Host, a.Host)
	}
	for f, d := range b.Digests {
		if a.Digests[f] != d {
			return fmt.Sprintf("NOT COMPARABLE with the previous %s run: %s table digest %s, previously %s", b.Workload, f, d, a.Digests[f])
		}
	}
	return "comparable with the previous " + b.Workload + " run: same host, same table digests"
}

// printShortfalls lists, per family and target, how many answers fell
// short and the lowest achieved accuracy among them.
func printShortfalls(w *workload, all []sample) {
	type key struct {
		fam    int
		target float64
	}
	short, seen := map[key]int{}, map[key]int{}
	low := map[key]float64{}
	for _, s := range all {
		if !s.answered() {
			continue
		}
		k := key{s.fam, s.target}
		seen[k]++
		if s.ratio() < 1 {
			if short[k] == 0 || s.achieved < low[k] {
				low[k] = s.achieved
			}
			short[k]++
		}
	}
	for fi, fs := range w.families {
		for _, a := range w.accs {
			if k := (key{fi, a}); short[k] > 0 {
				fmt.Printf("short: %s N=%d acc %g: %d of %d answers, lowest reached %.4g\n", fs.name(), fs.n, a, short[k], seen[k], low[k])
			}
		}
	}
}
