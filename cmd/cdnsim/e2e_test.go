package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"videocdn/internal/trace"
	"videocdn/internal/workload"
)

// TestTextAndDirectoryReplayAlike builds the real cdnsim binary and
// replays one trace given as a text file and as a columnar directory:
// the result rows must be identical. The retired -mmap and -format
// flags must fail flag parsing.
func TestTextAndDirectoryReplayAlike(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the real binary")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "cdnsim")
	if out, err := exec.Command("go", "build", "-o", bin, "videocdn/cmd/cdnsim").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	p, err := workload.ProfileByName("europe")
	if err != nil {
		t.Fatal(err)
	}
	p.RequestsPerDay, p.CatalogSize, p.NewVideosPerDay = 2000, 300, 10
	g, err := workload.NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := g.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	text := filepath.Join(tmp, "eu.trace")
	f, err := os.Create(text)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteAll(trace.NewTextWriter(f), reqs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(tmp, "eu.tracedir")
	dw, err := trace.CreateDir(dir, trace.DirConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteAll(dw, reqs); err != nil {
		t.Fatal(err)
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}

	replay := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).Output()
		if err != nil {
			t.Fatalf("cdnsim %v: %v\n%s", args, err, out)
		}
		// Drop each line's last field: on result rows it is the
		// wall-clock elapsed column.
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		for i, l := range lines {
			if f := strings.Fields(l); len(f) > 0 {
				lines[i] = strings.Join(f[:len(f)-1], " ")
			}
		}
		return strings.Join(lines, "\n")
	}
	args := []string{"-algo", "cafe,xlru", "-disk-gb", "0.5", "-trace"}
	fromText := replay(append(args, text)...)
	fromDir := replay(append(args, dir)...)
	if fromText != fromDir {
		t.Errorf("text and directory replays differ:\ntext:\n%s\ndirectory:\n%s", fromText, fromDir)
	}
	if !strings.Contains(fromText, "cafe") || !strings.Contains(fromText, "xlru") {
		t.Errorf("no result rows in\n%s", fromText)
	}

	for _, args := range [][]string{{"-mmap", "-trace", dir}, {"-format", "text", "-trace", text}} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err == nil {
			t.Errorf("cdnsim %v exited 0, want a flag-parsing failure", args)
		}
		if want := "flag provided but not defined: " + args[0]; !strings.Contains(string(out), want) {
			t.Errorf("cdnsim %v: output lacks %q:\n%s", args, want, out)
		}
	}
}
