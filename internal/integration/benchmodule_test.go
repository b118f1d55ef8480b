package integration

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleVets compiles and vets the repo benchmark against this
// tree. bench/ is a module of its own (replace deltanet => ../), so the
// root module's `go build ./... && go test ./...` never type-checks it:
// without this test, renaming or re-signing any of the symbols it imports
// from internal/monitor, internal/server, client and the rest passes
// tier-1 and only fails when the benchmark is next built.
func TestBenchModuleVets(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go tool unavailable: %v", err)
	}
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "../../bench"
	// GOWORK=off as bench/run.sh builds it; no toolchain or module fetch.
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOTOOLCHAIN=local", "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
