package prof

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStartWritesOnlyRequestedProfiles: each non-empty path gets a
// non-empty profile, and empty paths write nothing.
func TestStartWritesOnlyRequestedProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Fatalf("profile %s not written (err %v)", filepath.Base(path), err)
		}
	}
	stop, err = Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 2 {
		t.Fatalf("profiling with empty paths wrote files: %d entries", len(entries))
	}
}

// TestStartReportsUnwritablePath: a CPU profile path that cannot be
// created fails Start before any work runs.
func TestStartReportsUnwritablePath(t *testing.T) {
	if _, err := Start(filepath.Join(t.TempDir(), "missing", "cpu.pprof"), ""); err == nil {
		t.Fatal("Start accepted a CPU profile path in a missing directory")
	}
}
