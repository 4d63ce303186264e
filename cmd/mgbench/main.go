// Command mgbench regenerates the paper's evaluation tables and figures
// (§4). Each experiment prints an aligned table; "-exp all" runs the whole
// evaluation in order. Wall-clock experiments (complexity, fig6, fig7,
// fig9) measure the host machine; the architecture studies (fig10–fig13,
// fig14, crosstrain) price deterministic operation traces under the three
// simulated testbed models.
//
// Usage:
//
//	mgbench -exp fig6 -level 9
//	mgbench -exp fig10
//	mgbench -exp all -level 8 > results.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"pbmg/internal/experiments"
	"pbmg/internal/grid"
)

func main() {
	exp := flag.String("exp", "all",
		"experiment: complexity, fig6, fig7 (includes fig8), fig9, fig10, fig11, fig12, fig13, fig14, fig4, fig5, fig5b (fig5 on biased inputs), crosstrain, ablation-smoother, ablation-ladder, ablation-pareto, baseline, serve, kernels, http, or all")
	level := flag.Int("level", 8, "finest multigrid level (grid side 2^k+1)")
	workers := flag.Int("workers", runtime.NumCPU(), "worker threads for wall-clock experiments")
	seed := flag.Int64("seed", 20090101, "training/test seed")
	family := flag.String("family", "poisson", "operator family for -exp baseline (poisson, aniso, varcoef, poisson3d)")
	epsilon := flag.Float64("epsilon", 0, "family parameter for -exp baseline (0: family default)")
	families := flag.String("families", "poisson,aniso,poisson3d", "family[:eps] list served by -exp serve")
	clients := flag.Int("clients", 1000, "concurrent HTTP connections for -exp http")
	jsonOut := flag.Bool("json", false, "with -exp baseline, serve, kernels, or http, also write BENCH_<family>.json / BENCH_serve.json / BENCH_kernels.json / BENCH_http.json for per-PR perf tracking")
	noFuse := flag.Bool("nofuse", false, "with -exp baseline, disable the fused cycle kernels (measures the pre-fusion pass structure)")
	out := flag.String("out", "", "with -exp baseline -json, write the report to this path instead of BENCH_<family>.json")
	gate := flag.Bool("gate", false, "with -exp kernels, fail if any fused kernel is >15% slower than its unfused oracle (same-machine fusion regression gate)")
	compare := flag.String("compare", "",
		"regression gate: compare this old report JSON (baseline or kernels format) against the new report given as the positional argument; cells in only one file are listed as new/removed; exit nonzero if any matched cell slowed >15% (usage: mgbench -compare old.json new.json)")
	writeAllow := flag.Bool("write", false, "with -exp escapes, regenerate ESCAPES.allow from the current compiler output instead of gating against it")
	quiet := flag.Bool("q", false, "suppress progress output")
	flag.Parse()

	var logf func(format string, args ...any)
	if !*quiet {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "mgbench: "+format+"\n", args...)
		}
	}

	if *compare != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "mgbench: -compare needs exactly one positional argument (usage: mgbench -compare old.json new.json)")
			os.Exit(2)
		}
		if err := runCompare(*compare, flag.Arg(0)); err != nil {
			fmt.Fprintln(os.Stderr, "mgbench:", err)
			os.Exit(1)
		}
		return
	}

	if *exp == "baseline" {
		if err := runBaseline(*family, *epsilon, *level, *workers, *seed, *jsonOut, *noFuse, *out, logf); err != nil {
			fmt.Fprintln(os.Stderr, "mgbench:", err)
			os.Exit(1)
		}
		return
	}
	if *exp == "kernels" {
		if err := runKernels(*workers, *seed, *jsonOut, *gate, logf); err != nil {
			fmt.Fprintln(os.Stderr, "mgbench:", err)
			os.Exit(1)
		}
		return
	}
	if *exp == "serve" {
		if err := runServe(*families, *level, *workers, *seed, *jsonOut, logf); err != nil {
			fmt.Fprintln(os.Stderr, "mgbench:", err)
			os.Exit(1)
		}
		return
	}
	if *exp == "escapes" {
		if err := runEscapes(*writeAllow, logf); err != nil {
			fmt.Fprintln(os.Stderr, "mgbench:", err)
			os.Exit(1)
		}
		return
	}
	if *exp == "http" {
		if err := runHTTP(*clients, *workers, *seed, *jsonOut, logf); err != nil {
			fmt.Fprintln(os.Stderr, "mgbench:", err)
			os.Exit(1)
		}
		return
	}

	o := experiments.Opts{MaxLevel: *level, Workers: *workers, Seed: *seed, Logf: logf}
	r := experiments.NewRunner(o)
	defer r.Close()

	if err := run(r, *exp); err != nil {
		fmt.Fprintln(os.Stderr, "mgbench:", err)
		os.Exit(1)
	}
}

func run(r *experiments.Runner, exp string) error {
	printTable := func(t *experiments.Table, err error) error {
		if err != nil {
			return err
		}
		fmt.Println(t.String())
		return nil
	}
	printTables := func(ts []*experiments.Table, err error) error {
		if err != nil {
			return err
		}
		for _, t := range ts {
			fmt.Println(t.String())
		}
		return nil
	}
	printText := func(s string, err error) error {
		if err != nil {
			return err
		}
		fmt.Println(s)
		return nil
	}

	switch exp {
	case "complexity":
		return printTable(r.Complexity())
	case "fig6":
		return printTable(r.Fig6())
	case "fig7", "fig8":
		abs, rel, err := r.Fig7and8()
		if err != nil {
			return err
		}
		fmt.Println(abs.String())
		fmt.Println(rel.String())
		return nil
	case "fig9":
		return printTable(r.Fig9(runtime.NumCPU()))
	case "fig10":
		return printTables(r.Fig10())
	case "fig11":
		return printTables(r.Fig11())
	case "fig12":
		return printTables(r.Fig12())
	case "fig13":
		return printTables(r.Fig13())
	case "fig14":
		return printText(r.Fig14())
	case "fig4":
		return printText(r.Fig4())
	case "fig5":
		return printText(r.Fig5(grid.Unbiased))
	case "fig5b":
		return printText(r.Fig5(grid.Biased))
	case "crosstrain":
		return printTable(r.CrossTrain())
	case "ablation-smoother":
		return printTable(r.SmootherAblation())
	case "ablation-ladder":
		return printTable(r.LadderAblation())
	case "ablation-pareto":
		return printTable(r.ParetoAblation())
	case "all":
		for _, e := range []string{
			"complexity", "fig4", "fig5", "fig6", "fig7", "fig9",
			"fig10", "fig11", "fig12", "fig13", "fig14", "crosstrain",
			"ablation-smoother", "ablation-ladder", "ablation-pareto",
		} {
			if err := run(r, e); err != nil {
				return fmt.Errorf("%s: %w", e, err)
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}
