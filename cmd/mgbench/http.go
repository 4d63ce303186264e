package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pbmg"
	"pbmg/internal/mixload"
	"pbmg/serve"
)

// The http experiment benchmarks the serving FRONT END: the same mixed
// 2D+3D workload is driven over HTTP at -clients concurrent connections
// twice — once through the single global admission limit, once with
// per-family quotas subdividing the same total concurrency — and the
// per-family latency distributions land in BENCH_http.json. The point the
// quotas exist to prove: under the global limit a burst of expensive 3D
// solves occupies every slot and the cheap 2D traffic queues behind it
// (the ~14× p99/p50 ratio in BENCH_serve.json), while with quotas the 3D
// family can hold at most its own slots, so the run FAILS unless the 2D
// p99 with quotas beats the 2D p99 under the global limit.

const (
	http2DSize  = 33  // 2D request side (the cheap family)
	http3DSize  = 17  // 3D request side (the expensive family)
	httpAcc     = 1e5 // per-request accuracy
	httpLimit   = 8   // total concurrency, both modes
	http2DQuota = 6   // quota mode: 2D slots
	http3DQuota = 2   // quota mode: 3D slots (the burst cap)
	httpPerConn = 2   // requests per connection
)

// httpFamilyCell is one family's latency distribution in one mode.
type httpFamilyCell struct {
	Family       string  `json:"family"`
	Dim          int     `json:"dim"`
	N            int     `json:"n"`
	Requests     int     `json:"requests"`
	Shed         int64   `json:"shed"`
	SolvesPerSec float64 `json:"solvesPerSec"`
	P50NS        int64   `json:"p50Ns"`
	P90NS        int64   `json:"p90Ns"`
	P99NS        int64   `json:"p99Ns"`
	MaxNS        int64   `json:"maxNs"`
}

// httpModeReport is one admission discipline's measurement.
type httpModeReport struct {
	// Mode is "global" (one shared limit) or "quota" (per-family).
	Mode         string           `json:"mode"`
	MaxInFlight  int              `json:"maxInFlight"`
	Quotas       map[string]int   `json:"quotas,omitempty"`
	WallNS       int64            `json:"wallNs"`
	SolvesPerSec float64          `json:"solvesPerSec"`
	Shed         int64            `json:"shed"`
	Families     []httpFamilyCell `json:"families"`
}

// httpReport is the machine-readable BENCH_http.json.
type httpReport struct {
	Clients     int              `json:"clients"`
	RequestsPer int              `json:"requestsPerClient"`
	Acc         float64          `json:"acc"`
	Workers     int              `json:"workers"`
	Modes       []httpModeReport `json:"modes"`
	// P99Improve2D is global-mode 2D p99 divided by quota-mode 2D p99 —
	// the starvation fix, > 1 required.
	P99Improve2D float64 `json:"p99Improve2D"`
	Machine      string  `json:"machine"`
	GoOS         string  `json:"goos"`
	GoArch       string  `json:"goarch"`
}

// runHTTP tunes a 2D+3D catalog, serves it over HTTP, and measures the
// mixed workload under both admission disciplines.
func runHTTP(clients, workers int, seed int64, writeJSON bool, logf func(string, ...any)) error {
	dir, err := os.MkdirTemp("", "mgbench-http-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, tc := range []struct {
		family pbmg.Family
		size   int
		file   string
	}{
		{pbmg.FamilyPoisson, http2DSize, "00-poisson.json"},
		{pbmg.FamilyPoisson3D, http3DSize, "01-poisson3d.json"},
	} {
		if logf != nil {
			logf("http: tuning %s for N=%d", tc.family, tc.size)
		}
		s, err := pbmg.Tune(pbmg.Options{
			MaxSize: tc.size, Family: tc.family,
			Machine: "intel-harpertown", Workers: workers, Seed: seed, Logf: logf,
		})
		if err != nil {
			return err
		}
		err = s.Save(filepath.Join(dir, tc.file))
		s.Close()
		if err != nil {
			return err
		}
	}

	keys := []pbmg.ServeKey{
		{Family: pbmg.FamilyPoisson, Dim: 2},
		{Family: pbmg.FamilyPoisson3D, Dim: 3},
	}
	reqN := []int{http2DSize, http3DSize}
	quotas := map[string]int{"poisson": http2DQuota, "poisson3d": http3DQuota}

	rep := httpReport{
		Clients:     clients,
		RequestsPer: httpPerConn,
		Acc:         httpAcc,
		Workers:     workers,
		Machine:     "intel-harpertown",
		GoOS:        runtime.GOOS,
		GoArch:      runtime.GOARCH,
	}
	for _, mode := range []struct {
		name   string
		quotas map[string]int
	}{
		{"global", nil},
		{"quota", quotas},
	} {
		cfg := serve.Config{
			Dir:         dir,
			Workers:     workers,
			MaxInFlight: httpLimit,
			Quotas:      mode.quotas,
			// The benchmark measures queueing under each discipline, not
			// shedding: queues deep enough for the whole fan-out and a wait
			// bound past any sane run length.
			QueueDepth: 4 * clients,
			MaxWait:    5 * time.Minute,
		}
		if logf != nil {
			logf("http: %s mode, %d connections × %d requests", mode.name, clients, httpPerConn)
		}
		mr, err := runHTTPMode(cfg, keys, reqN, clients, seed)
		if err != nil {
			return fmt.Errorf("http %s mode: %w", mode.name, err)
		}
		mr.Mode = mode.name
		mr.Quotas = mode.quotas
		rep.Modes = append(rep.Modes, *mr)
	}

	fmt.Printf("http: %d connections, %d requests each, ≤%d solves in flight\n",
		clients, httpPerConn, httpLimit)
	fmt.Printf("%-8s %-14s %6s %8s %6s %12s %12s %12s %12s\n",
		"mode", "family", "N", "reqs", "shed", "p50", "p90", "p99", "solves/s")
	for _, m := range rep.Modes {
		for _, c := range m.Families {
			fmt.Printf("%-8s %-14s %6d %8d %6d %12v %12v %12v %12.1f\n",
				m.Mode, c.Family, c.N, c.Requests, c.Shed,
				time.Duration(c.P50NS), time.Duration(c.P90NS), time.Duration(c.P99NS), c.SolvesPerSec)
		}
	}

	p99Global := find2DP99(rep.Modes[0])
	p99Quota := find2DP99(rep.Modes[1])
	if p99Quota > 0 {
		rep.P99Improve2D = float64(p99Global) / float64(p99Quota)
	}
	fmt.Printf("2D p99: global %v → quota %v (%.2fx)\n",
		time.Duration(p99Global), time.Duration(p99Quota), rep.P99Improve2D)

	if writeJSON {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile("BENCH_http.json", append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote BENCH_http.json")
	}

	// The starvation gate: per-family quotas exist so a 3D burst cannot
	// starve 2D traffic. If they do not strictly improve the 2D p99 over
	// the single global limit, the front end has regressed.
	if p99Quota >= p99Global {
		return fmt.Errorf("http: 2D p99 with quotas (%v) is not better than under the global limit (%v)",
			time.Duration(p99Quota), time.Duration(p99Global))
	}
	return nil
}

func find2DP99(m httpModeReport) int64 {
	for _, c := range m.Families {
		if c.Dim == 2 {
			return c.P99NS
		}
	}
	return 0
}

// runHTTPMode serves the catalog under one admission configuration,
// drives the workload over real sockets, and drains the server.
func runHTTPMode(cfg serve.Config, keys []pbmg.ServeKey, reqN []int, clients int, seed int64) (*httpModeReport, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()

	res, err := mixload.Run(mixload.Options{
		URL:      base,
		Keys:     keys,
		ReqN:     reqN,
		Clients:  clients,
		Requests: clients * httpPerConn,
		Acc:      httpAcc,
		Dist:     pbmg.Unbiased,
		Seed:     seed,
	})
	if err != nil {
		hs.Close()
		srv.Close()
		return nil, err
	}

	cl := &serve.Client{BaseURL: base}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	metrics, err := cl.Metrics(ctx)
	if err != nil {
		hs.Close()
		srv.Close()
		return nil, err
	}

	// Graceful drain, the same sequence mgserved runs on SIGTERM.
	srv.BeginDrain()
	if err := hs.Shutdown(ctx); err != nil {
		srv.Close()
		return nil, err
	}
	if err := srv.Drain(ctx); err != nil {
		srv.Close()
		return nil, err
	}
	srv.Close()

	mr := &httpModeReport{
		MaxInFlight:  metrics.GlobalMaxInFlight,
		WallNS:       res.Elapsed.Nanoseconds(),
		SolvesPerSec: float64(len(res.All)) / res.Elapsed.Seconds(),
		Shed:         res.Shed,
	}
	for fi, key := range keys {
		ls := res.PerFamily[fi]
		cell := httpFamilyCell{
			Family:       key.Family.String(),
			Dim:          key.Dim,
			N:            reqN[fi],
			Requests:     len(ls),
			SolvesPerSec: float64(len(ls)) / res.Elapsed.Seconds(),
			P50NS:        mixload.Percentile(ls, 0.50).Nanoseconds(),
			P90NS:        mixload.Percentile(ls, 0.90).Nanoseconds(),
			P99NS:        mixload.Percentile(ls, 0.99).Nanoseconds(),
		}
		if len(ls) > 0 {
			cell.MaxNS = ls[len(ls)-1].Nanoseconds()
		}
		for _, fs := range metrics.Families {
			if fs.Family == key.Family.String() {
				cell.Shed = fs.Shed
			}
		}
		mr.Families = append(mr.Families, cell)
	}
	return mr, nil
}
