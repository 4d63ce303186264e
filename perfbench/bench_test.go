package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sync/atomic"
	"testing"
	"time"

	"pbmg"
	"pbmg/serve"
)

// smallProblem tunes a small Poisson solver and draws one graded problem.
func smallProblem(t *testing.T) (*pbmg.Solver, *pbmg.Problem) {
	t.Helper()
	s, err := pbmg.Tune(pbmg.Options{MaxSize: 17, Machine: machine, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	p, err := s.NewFamilyProblem(17, pbmg.Unbiased, 3)
	if err != nil {
		t.Fatal(err)
	}
	pbmg.Reference(p)
	return s, p
}

func TestCorruptedAnswerCountsAsFailure(t *testing.T) {
	s, p := smallProblem(t)
	const target = 1e5
	x := p.NewState()
	if err := s.Solve(x, p.B, target); err != nil {
		t.Fatal(err)
	}
	good := sample{target: target, achieved: grade(p, x)}
	var ok tally
	ok.add([]sample{good})
	if ok.failed() != 0 || ok.unsound != 0 {
		t.Fatalf("a correct answer (accuracy %.3g) was counted as failed: %+v", good.achieved, ok)
	}

	// Perturb the answer by a small multiple of its own error: still a
	// better guess than the initial state, but short of the target.
	bad := x.Clone()
	opt := p.Optimal()
	for i, v := range bad.Data() {
		bad.Data()[i] = v + 1000*(v-opt.Data()[i]) + 1e-3*math.Abs(opt.Data()[i])
	}
	short := sample{target: target, achieved: grade(p, bad)}
	// The initial state itself reduces the error by nothing.
	none := sample{target: target, achieved: grade(p, p.NewState())}
	nan := x.Clone()
	nan.Data()[len(nan.Data())/2] = math.NaN()
	broken := sample{target: target, achieved: grade(p, nan)}

	var tl tally
	tl.add([]sample{good, short, none, broken})
	if tl.short != 3 || tl.failed() != 3 {
		t.Fatalf("want the 3 corrupted answers short and failed, got %+v (accuracies %.3g %.3g %.3g)",
			tl, short.achieved, none.achieved, broken.achieved)
	}
	if tl.unsound != 2 {
		t.Fatalf("want the unreduced and the NaN answer unsound, got %d", tl.unsound)
	}
	if tl.ratioMin != 0 {
		t.Fatalf("ratio minimum %g, want 0 from the NaN answer", tl.ratioMin)
	}
}

// TestHTTPGradesServedAnswer serves a corrupted answer over HTTP and checks
// the client path grades it as a shortfall.
func TestHTTPGradesServedAnswer(t *testing.T) {
	_, p := smallProblem(t)
	opt := p.Optimal().Data()
	var corrupt atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		x := append([]float64(nil), opt...)
		if corrupt.Load() {
			for i := range x {
				x[i] *= 1.01
			}
		}
		_ = json.NewEncoder(w).Encode(serve.SolveResponse{X: x, SolveNs: 1000})
	}))
	defer srv.Close()

	w := &workload{families: []famSpec{{pbmg.FamilyPoisson, 17}}, accs: []float64{1e5}}
	in := &input{p: p}
	if err := buildBodies(w, []*input{in}); err != nil {
		t.Fatal(err)
	}
	cl := newHTTPClient(1)
	defer cl.CloseIdleConnections()
	op := httpOp(cl, srv.URL, []cell{{in: in, acc: 1e5, x: p.NewState()}})
	exact := op(context.Background(), 0, nil, 0)
	corrupt.Store(true)
	bad := op(context.Background(), 1, nil, 0)
	var tl tally
	tl.add([]sample{exact, bad})
	if tl.errored != 0 || tl.short != 1 || bad.ratio() >= 1 || exact.ratio() < 1 {
		t.Fatalf("want only the corrupted answer short: exact %.3g, corrupted %.3g, %+v", exact.ratio(), bad.ratio(), tl)
	}
}

func TestLoopsRunExactCounts(t *testing.T) {
	var calls atomic.Int64
	op := func(ctx context.Context, i int64, tr *tracer, root int) sample {
		calls.Add(1)
		now := time.Now()
		return sample{sent: now, done: now, target: 1, achieved: 2}
	}
	if n := opsFor(100, 250*time.Millisecond, 6); n != 30 {
		t.Fatalf("opsFor: got %d, want 30 (25 rounded up to whole rounds of 6)", n)
	}
	open := openLoop(context.Background(), op, 30, 1000, 2, nil)
	closed := closedLoop(context.Background(), op, 12, 2, newTracer())
	if len(open.samples) != 30 || len(closed.samples) != 12 || calls.Load() != 42 {
		t.Fatalf("ran %d calls for %d open and %d closed samples, want 30+12", calls.Load(), len(open.samples), len(closed.samples))
	}
	for i, s := range open.samples {
		if s.sent.IsZero() {
			t.Fatalf("open-loop operation %d never ran", i)
		}
	}
}

// TestBenchmarkJSONMatchesSpecs keeps BENCHMARK.json and the metrics the
// program prints from drifting apart.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, program prints %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, program prints %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEndSpecs)
	same("per_layer", b.PerLayer, perLayerSpecs())
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program has %d", len(b.Workloads), len(workloads))
	}
	for i, wl := range b.Workloads {
		if wl.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, wl.Name, workloads[i].name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec(nil), endToEndSpecs...), perLayerSpecs()...) {
		if !name.MatchString(s.Name) || seen[s.Name] {
			t.Errorf("metric name %q is malformed or repeated", s.Name)
		}
		seen[s.Name] = true
	}
}

func TestWindowedRate(t *testing.T) {
	t0 := time.Now()
	var ss []sample
	// Windows of two operations, each 100ms long except one, which a stall
	// stretches to 1s: the median ignores it.
	for w := 0; w < windows; w++ {
		span := 100 * time.Millisecond
		if w == 2 {
			span = time.Second
		}
		start := t0.Add(time.Duration(w) * 2 * time.Second)
		for k := 0; k < 2; k++ {
			ss = append(ss, sample{sent: start, done: start.Add(span), target: 1, achieved: 2})
		}
	}
	if got := windowed(ss, rate(func(sample) bool { return true })); math.Abs(got-20) > 1e-9 {
		t.Fatalf("windowed rate %g, want 20/s", got)
	}
}
