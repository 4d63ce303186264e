package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"pbmg"
	"pbmg/serve"
)

// machine is the cost model every table is tuned under: deterministic, so
// every run serves identical plans and the table digests repeat.
const machine = "intel-harpertown"

// catalog is the ready-to-serve state setup builds: tuned solvers behind a
// Registry (in-process workloads) or behind serve.New on a loopback
// listener (HTTP workloads).
type catalog struct {
	solvers  []*pbmg.Solver  // per workload family
	services []*pbmg.Service // in-process only
	reg      *pbmg.Registry

	srv    *serve.Server
	hs     *http.Server
	url    string
	served chan error

	tuneS   []float64 // per family, seconds
	digests []string  // per family, hex
}

// setup tunes the workload's families and builds the serving front end,
// returning once it can answer. dir is scratch space for tuned tables.
func setup(w *workload, dir string) (*catalog, error) {
	c := &catalog{
		solvers: make([]*pbmg.Solver, len(w.families)),
		tuneS:   make([]float64, len(w.families)),
	}
	if w.http {
		if err := c.setupHTTP(w, dir); err != nil {
			return nil, err
		}
		return c, nil
	}
	c.reg = pbmg.NewRegistry(pbmg.RegistryOptions{Workers: w.workers, MaxInFlight: w.maxInFlight})
	c.services = make([]*pbmg.Service, len(w.families))
	err := c.tuneAll(w, func(i int, o pbmg.Options) error {
		svc, err := c.reg.Tune(o)
		if err != nil {
			return err
		}
		c.services[i], c.solvers[i] = svc, svc.Solver()
		return nil
	})
	if err != nil {
		c.close()
		return nil, err
	}
	c.digestAll()
	return c, nil
}

// tuneAll tunes every family on at most two goroutines (the host has two
// CPUs), recording each family's tuning time.
func (c *catalog) tuneAll(w *workload, tune func(i int, o pbmg.Options) error) error {
	errs := make([]error, len(w.families))
	var next sync.Mutex
	idx := 0
	var wg sync.WaitGroup
	for g := 0; g < min(2, len(w.families)); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				i := idx
				idx++
				next.Unlock()
				if i >= len(w.families) {
					return
				}
				fs := w.families[i]
				t0 := time.Now()
				errs[i] = tune(i, pbmg.Options{MaxSize: fs.n, Family: fs.fam, Machine: machine, Seed: 1})
				c.tuneS[i] = time.Since(t0).Seconds()
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (c *catalog) setupHTTP(w *workload, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	quotas := map[string]int{}
	err := c.tuneAll(w, func(i int, o pbmg.Options) error {
		o.Workers = w.workers
		s, err := pbmg.Tune(o)
		if err != nil {
			return err
		}
		c.solvers[i] = s
		return s.Save(filepath.Join(dir, w.families[i].name()+".json"))
	})
	if err != nil {
		c.close()
		return err
	}
	for _, fs := range w.families {
		quotas[fs.name()] = 1
	}
	c.srv, err = serve.New(serve.Config{Dir: dir, Workers: w.workers, MaxInFlight: w.maxInFlight, Quotas: quotas})
	if err != nil {
		c.close()
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.close()
		return err
	}
	c.url = "http://" + ln.Addr().String()
	c.hs = &http.Server{Handler: serverSpans(c.srv.Handler())}
	c.served = make(chan error, 1)
	go func() { c.served <- c.hs.Serve(ln) }()
	c.digestAll()
	return nil
}

// digestAll hashes each tuned table.
func (c *catalog) digestAll() {
	c.digests = make([]string, len(c.solvers))
	for i, s := range c.solvers {
		b, err := json.Marshal(s.Tuned())
		if err != nil {
			c.digests[i] = "unmarshalable"
			continue
		}
		sum := sha256.Sum256(b)
		c.digests[i] = hex.EncodeToString(sum[:8])
	}
}

// close stops the listener and releases every pool; it returns once the
// HTTP server goroutine has exited.
func (c *catalog) close() {
	if c.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = c.hs.Shutdown(ctx) // a timeout leaves Close below to cut connections
		cancel()
		_ = c.hs.Close()
		<-c.served
		c.hs = nil
	}
	if c.srv != nil {
		c.srv.Close()
		c.srv = nil
	}
	if c.reg != nil {
		c.reg.Close()
		c.reg = nil
	}
	for _, s := range c.solvers {
		if s != nil {
			s.Close() // no-op for registry-built solvers, whose pool the registry owns
		}
	}
}

// escalations sums the reduced-precision retries across the catalog's
// solvers.
func (c *catalog) escalations() int64 {
	var n int64
	for _, s := range c.solvers {
		n += s.Escalations()
	}
	return n
}

// host describes the machine a run measured, so runs on different hosts
// are never compared as if they were alike.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	L3         string `json:"l3"`
}

func readHost() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: "unknown", L3: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	for i := 0; i < 8; i++ {
		base := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		lvl, err := os.ReadFile(base + "level")
		if err != nil {
			break
		}
		if l, _ := strconv.Atoi(strings.TrimSpace(string(lvl))); l == 3 {
			if sz, err := os.ReadFile(base + "size"); err == nil {
				h.L3 = strings.TrimSpace(string(sz))
			}
		}
	}
	return h
}

// digestValue renders the leading 48 bits of a hex digest as a number, so a
// change of tuning decisions shows as a changed per-layer value.
func digestValue(d string) float64 {
	if len(d) > 12 {
		d = d[:12]
	}
	v, err := strconv.ParseUint(d, 16, 64)
	if err != nil {
		return 0
	}
	return float64(v)
}

// cpuTicks reads the host's aggregate CPU ticks from /proc/stat: the total
// and the share stolen by the hypervisor for other guests.
func cpuTicks() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}
