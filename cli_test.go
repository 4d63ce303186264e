package pbmg

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIRoundTrip builds the mgtune and mgsolve binaries and exercises the
// tune-once / solve-many workflow end to end: train a tiny configuration,
// solve with it, and render the tuned cycle — the PetaBricks configuration-
// file lifecycle of §3.2.1.
func TestCLIRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	build := func(name string) string {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, out)
		}
		return bin
	}
	mgtune := build("mgtune")
	mgsolve := build("mgsolve")

	cfg := filepath.Join(dir, "tuned.json")
	out, err := exec.Command(mgtune,
		"-size", "33", "-machine", "intel-harpertown", "-workers", "1",
		"-o", cfg, "-q").CombinedOutput()
	if err != nil {
		t.Fatalf("mgtune: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "tuned for intel-harpertown up to N=33") {
		t.Fatalf("unexpected mgtune output: %s", out)
	}
	if _, err := os.Stat(cfg); err != nil {
		t.Fatalf("config not written: %v", err)
	}

	out, err = exec.Command(mgsolve,
		"-config", cfg, "-size", "33", "-acc", "1e5", "-workers", "1",
		"-cycle", "-v").CombinedOutput()
	if err != nil {
		t.Fatalf("mgsolve: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"tuned cycle shape", "tuned call tree", "requested accuracy 1e+05", "achieved"} {
		if !strings.Contains(text, want) {
			t.Fatalf("mgsolve output missing %q:\n%s", want, text)
		}
	}

	// Oversized request must fail cleanly.
	if out, err := exec.Command(mgsolve, "-config", cfg, "-size", "65", "-workers", "1").CombinedOutput(); err == nil {
		t.Fatalf("mgsolve accepted a grid beyond the tuned size:\n%s", out)
	}

	// --- operator families: tune an anisotropic configuration and solve it.
	anisoCfg := filepath.Join(dir, "aniso.json")
	out, err = exec.Command(mgtune,
		"-size", "17", "-family", "aniso", "-epsilon", "0.25",
		"-machine", "intel-harpertown", "-workers", "1",
		"-o", anisoCfg, "-q").CombinedOutput()
	if err != nil {
		t.Fatalf("mgtune -family aniso: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "family aniso, eps 0.25") {
		t.Fatalf("mgtune output missing family provenance: %s", out)
	}

	out, err = exec.Command(mgsolve,
		"-config", anisoCfg, "-size", "17", "-acc", "1e5", "-workers", "1",
		"-family", "aniso", "-epsilon", "0.25").CombinedOutput()
	if err != nil {
		t.Fatalf("mgsolve aniso: %v\n%s", err, out)
	}
	text = string(out)
	for _, want := range []string{"family aniso", "eps 0.25", "achieved"} {
		if !strings.Contains(text, want) {
			t.Fatalf("mgsolve aniso output missing %q:\n%s", want, text)
		}
	}

	// --- 3D Poisson: tune the poisson3d family up to level 5 (N=33) and
	// solve at the tuned size — the dimension-generic path end to end.
	cfg3d := filepath.Join(dir, "poisson3d.json")
	out, err = exec.Command(mgtune,
		"-size", "33", "-family", "poisson3d",
		"-machine", "intel-harpertown", "-workers", "1",
		"-o", cfg3d, "-q").CombinedOutput()
	if err != nil {
		t.Fatalf("mgtune -family poisson3d: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "family poisson3d") {
		t.Fatalf("mgtune output missing 3D family provenance: %s", out)
	}

	out, err = exec.Command(mgsolve,
		"-config", cfg3d, "-size", "33", "-acc", "1e5", "-workers", "1",
		"-family", "poisson3d", "-cycle").CombinedOutput()
	if err != nil {
		t.Fatalf("mgsolve poisson3d: %v\n%s", err, out)
	}
	text = string(out)
	for _, want := range []string{"family poisson3d", "tuned cycle shape", "achieved"} {
		if !strings.Contains(text, want) {
			t.Fatalf("mgsolve poisson3d output missing %q:\n%s", want, text)
		}
	}

	// Bad-input error paths: each must exit non-zero with a telling message.
	for _, tc := range []struct {
		name    string
		cmd     *exec.Cmd
		wantErr string
	}{
		{"family mismatch",
			exec.Command(mgsolve, "-config", anisoCfg, "-size", "17", "-family", "poisson"),
			"tuned for family aniso"},
		{"3D family mismatch",
			exec.Command(mgsolve, "-config", cfg3d, "-size", "33", "-family", "poisson"),
			"tuned for family poisson3d"},
		{"unknown family",
			exec.Command(mgsolve, "-config", anisoCfg, "-size", "17", "-family", "helmholtz"),
			"unknown operator family"},
		{"epsilon mismatch",
			exec.Command(mgsolve, "-config", anisoCfg, "-size", "17", "-family", "aniso", "-epsilon", "0.5"),
			"tuned for eps 0.25"},
		{"unknown family at tune time",
			exec.Command(mgtune, "-size", "17", "-family", "bogus", "-machine", "intel-harpertown", "-q"),
			"unknown operator family"},
		{"negative epsilon at tune time",
			exec.Command(mgtune, "-size", "17", "-family", "aniso", "-epsilon", "-1", "-machine", "intel-harpertown", "-q"),
			"epsilon must be positive"},
	} {
		out, err := tc.cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("%s: command succeeded, want failure:\n%s", tc.name, out)
		}
		if !strings.Contains(string(out), tc.wantErr) {
			t.Fatalf("%s: error output missing %q:\n%s", tc.name, tc.wantErr, out)
		}
	}
}
