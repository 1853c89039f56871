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
	bin := build(t, tmp)
	reqs := europe(t)
	text := writeText(t, filepath.Join(tmp, "eu.trace"), reqs)
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

// TestSeriesWriteErrorFails: a -series file that cannot be written
// (/dev/full refuses every write) makes cdnsim exit 1 and name the
// error, instead of printing its table and exiting 0 with nothing
// written.
func TestSeriesWriteErrorFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the real binary")
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full here")
	}
	tmp := t.TempDir()
	bin := build(t, tmp)
	text := writeText(t, filepath.Join(tmp, "eu.trace"), europe(t))
	out, err := exec.Command(bin, "-trace", text, "-algo", "cafe", "-disk-gb", "1", "-series", "/dev/full").CombinedOutput()
	if err == nil {
		t.Fatalf("cdnsim exited 0 writing its series to /dev/full:\n%s", out)
	}
	if want := "no space left on device"; !strings.Contains(string(out), want) {
		t.Errorf("output lacks %q:\n%s", want, out)
	}
}

// build compiles cdnsim into dir and returns the binary's path.
func build(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "cdnsim")
	if out, err := exec.Command("go", "build", "-o", bin, "videocdn/cmd/cdnsim").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// europe generates a three-day trace of a small europe profile.
func europe(t *testing.T) []trace.Request {
	t.Helper()
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
	return reqs
}

// writeText writes reqs as a text trace at path and returns the path.
func writeText(t *testing.T, path string, reqs []trace.Request) string {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteAll(trace.NewTextWriter(f), reqs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}
