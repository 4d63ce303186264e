package pbmg

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMGServedLifecycle drives the serving daemon end to end as a real
// process: start on an ephemeral port, solve over HTTP, hot-reload via
// SIGHUP and the reload endpoint, then SIGTERM — which must drain and
// exit 0. This file stays in package pbmg and speaks raw JSON so the test
// exercises the daemon the way an external client would.
func TestMGServedLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	// A tuned-table directory for -configdir, so SIGHUP has real files to
	// re-read.
	tables := t.TempDir()
	if err := tuneFamily(t, FamilyPoisson, 0).Save(filepath.Join(tables, "poisson.json")); err != nil {
		t.Fatal(err)
	}

	srv, addr, scanner := startMGServed(t,
		"-addr", "127.0.0.1:0", "-configdir", tables, "-workers", "1",
		"-quota", "poisson=2", "-drain-timeout", "30s")

	// Everything the daemon prints after its address is collected for the
	// final assertions.
	var logTail strings.Builder
	logLines := make(chan struct{})
	go func() {
		defer close(logLines)
		for scanner.Scan() {
			logTail.WriteString(scanner.Text())
			logTail.WriteString("\n")
		}
	}()
	base := "http://" + addr

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}

	// One solve over the wire, request built by hand like an external
	// client would.
	p, err := tuneFamily(t, FamilyPoisson, 0).NewFamilyProblem(17, Unbiased, 21)
	if err != nil {
		t.Fatal(err)
	}
	Reference(p)
	body, err := json.Marshal(map[string]any{
		"family": "poisson", "n": 17, "accuracy": 1e3,
		"b": p.B.Data(), "x": p.NewState().Data(),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var solved struct {
		X []float64 `json:"x"`
	}
	err = json.NewDecoder(resp.Body).Decode(&solved)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: HTTP %d, %v", resp.StatusCode, err)
	}
	x := NewGrid(17)
	copy(x.Data(), solved.X)
	if got := p.AccuracyOf(x); got < 1e3 {
		t.Fatalf("served accuracy %.3g, want ≥ 1e3", got)
	}

	// Hot-reload over HTTP, then via SIGHUP; each must bump the version.
	resp, err = http.Post(base+"/-/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload = %d", resp.StatusCode)
	}
	if err := srv.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, metrics := get("/metrics")
		var m struct {
			Version int64 `json:"version"`
		}
		if err := json.Unmarshal(metrics, &m); err != nil {
			t.Fatal(err)
		}
		if m.Version == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("version = %d after two reloads, want 3", m.Version)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// SIGTERM: graceful drain, clean exit.
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Drain the log pipe to EOF before Wait — Wait closes the pipe and
	// would race the scanner out of the final lines.
	<-logLines
	if err := srv.Wait(); err != nil {
		t.Fatalf("mgserved exited uncleanly after SIGTERM: %v\n%s", err, logTail.String())
	}
	if !strings.Contains(logTail.String(), "drained cleanly") {
		t.Fatalf("drain not logged:\n%s", logTail.String())
	}
}

// TestMGServedHeaderTimeout: a client that sends part of a request line
// and then stalls must not hold its connection open; the daemon closes it
// once the header read timeout passes.
func TestMGServedHeaderTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	_, addr, _ := startMGServed(t,
		"-addr", "127.0.0.1:0", "-families", "poisson", "-size", "17", "-workers", "1")

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HT")); err != nil {
		t.Fatal(err)
	}
	// Well past the daemon's timeout: a read that runs into this deadline
	// means the daemon kept the stalled connection open.
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled connection not closed by the daemon: %v", err)
	}
}

// startMGServed builds the daemon, starts it with args, and waits for the
// log line naming its listen address. The returned scanner continues with
// the daemon's stderr after that line; the process is killed at cleanup.
func startMGServed(t *testing.T, args ...string) (*exec.Cmd, string, *bufio.Scanner) {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "mgserved")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/mgserved")
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build mgserved: %v\n%s", err, out)
	}

	srv := exec.Command(bin, args...)
	stderr, err := srv.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Process.Kill()
		srv.Wait()
	})

	scanner := bufio.NewScanner(stderr)
	for scanner.Scan() {
		if _, addr, ok := strings.Cut(scanner.Text(), "listening on "); ok {
			return srv, addr, scanner
		}
	}
	t.Fatal("mgserved never reported its listen address")
	return nil, "", nil
}
