package main

import (
	"fmt"
	"math"
	"math/rand"

	"pbmg"
)

// famSpec is one operator family a workload serves, at the finest grid
// side it sends.
type famSpec struct {
	fam pbmg.Family
	n   int
}

func (f famSpec) name() string { return f.fam.String() }

// workload is one traffic mix. Every workload runs an open loop (fixed
// arrival rate, latency from each operation's due time) followed by a
// closed loop (callers that wait for each answer), over the same inputs.
type workload struct {
	name string
	// http serves the mix through serve.New on a loopback listener instead
	// of calling the Registry in-process.
	http     bool
	families []famSpec
	dists    []pbmg.Distribution
	accs     []float64
	// inputs is the number of right-hand sides per (family, dist).
	inputs int
	// workers sizes the kernel worker pool (≤ 1: serial).
	workers int
	// maxInFlight is the registry-wide admission limit.
	maxInFlight int
	// callers is the number of load-generating goroutines (HTTP:
	// connections) in both loops.
	callers int
	// rate is the open loop's arrival rate in operations per second, about
	// a third of capacity: low enough that interference from other work on
	// a shared host does not drive the queue into overload.
	rate float64
	// capacity is about what the closed loop sustains on a 2-CPU host, in
	// operations per second; it sizes the closed loop's fixed amount of
	// work.
	capacity float64
	// setupReps is how many times setup runs; setup_s is their median.
	setupReps int
}

var allAccs = []float64{1e1, 1e3, 1e5, 1e7, 1e9}

var workloads = []*workload{
	{
		name: "solve-large",
		families: []famSpec{
			{pbmg.FamilyPoisson, 257}, {pbmg.FamilyVarCoef, 129}, {pbmg.FamilyPoisson3D, 33},
		},
		// Unbiased is the training distribution; Biased and PointSources
		// carry the accuracy contract off it.
		dists:       []pbmg.Distribution{pbmg.Unbiased, pbmg.Biased, pbmg.PointSources},
		accs:        allAccs,
		inputs:      2,
		workers:     2,
		maxInFlight: 2,
		callers:     1,
		rate:        48,
		capacity:    140,
		setupReps:   1,
	},
	{
		name:        "http-small",
		http:        true,
		families:    []famSpec{{pbmg.FamilyPoisson, 33}, {pbmg.FamilyPoisson3D, 17}},
		dists:       []pbmg.Distribution{pbmg.Unbiased},
		accs:        []float64{1e5},
		inputs:      8,
		workers:     1,
		maxInFlight: 2,
		callers:     2,
		rate:        120,
		capacity:    450,
		setupReps:   3,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// input is one drawn right-hand side with its reference solution attached.
type input struct {
	fam  int // index into workload.families
	dist int // index into workload.dists
	p    *pbmg.Problem
	// body is the pre-marshaled HTTP request per accuracy (HTTP workloads).
	body [][]byte
}

// cell is one operation of a round: an input solved at one target. x is
// the cell's state grid, reused by every operation on the cell (a round is
// far longer than the number of operations in flight).
type cell struct {
	in     *input
	accIdx int
	acc    float64
	x      *pbmg.Grid
	// class numbers the cell's (family, distribution, target): operations
	// of one class run the same plan.
	class int
}

// corpusSeed fixes the problems every run solves; the run's seed only sets
// the order. Whether a solve meets its target varies from one right-hand
// side to the next, so a corpus drawn afresh per run would make the
// accuracy metrics differ between seeds by more than any regression bound;
// on one fixed corpus they repeat exactly and every change in them is a
// change in the program.
const corpusSeed = 1

// drawInputs draws the workload's corpus and computes each problem's
// reference solution. Every (family, distribution, input) triple gets its
// own generator, so adding a family or an input leaves the others as they
// were.
func drawInputs(w *workload, cat *catalog) ([]*input, error) {
	var ins []*input
	for k := 0; k < w.inputs; k++ {
		for fi, fs := range w.families {
			for di, d := range w.dists {
				sub := rand.New(rand.NewSource(corpusSeed*1_000_003 + int64(k*97+fi*13+di))).Int63()
				p, err := cat.solvers[fi].NewFamilyProblem(fs.n, d, sub)
				if err != nil {
					return nil, err
				}
				if w.http {
					// Requests carry b only, so the server solves from the
					// zero grid: the reference must share that boundary.
					p.Boundary.Zero()
				}
				pbmg.Reference(p)
				ins = append(ins, &input{fam: fi, dist: di, p: p})
			}
		}
	}
	return ins, nil
}

// round lists one round of operations: every input at every target, the
// targets rotating fastest so cheap and expensive solves alternate. The
// seed sets where in the round the run starts.
func round(w *workload, ins []*input, seed int64) []cell {
	var cs []cell
	for _, in := range ins {
		for ai, a := range w.accs {
			class := (in.fam*len(w.dists)+in.dist)*len(w.accs) + ai
			cs = append(cs, cell{in: in, accIdx: ai, acc: a, x: in.p.NewState(), class: class})
		}
	}
	off := int(uint64(seed) % uint64(len(cs)))
	return append(cs[off:], cs[:off]...)
}

// grade returns the accuracy answer x achieved against the problem's
// reference: the factor by which it cut the initial error. A non-finite
// answer grades 0.
func grade(p *pbmg.Problem, x *pbmg.Grid) float64 {
	for _, v := range x.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
	}
	a := p.AccuracyOf(x)
	if math.IsNaN(a) {
		return 0
	}
	return a
}
