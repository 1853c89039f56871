package videocdn_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBenchModuleBuilds compiles the benchmark in bench/. It is a
// module of its own, so `go build ./...` here never builds it, yet it
// compiles against internal/... symbols that a change here can break.
func TestBenchModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the bench module")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	cmd := exec.Command(goBin, "build", "-C", "bench", "-o", filepath.Join(t.TempDir(), "bench"), ".")
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build -C bench: %v\n%s", err, out)
	}
}
