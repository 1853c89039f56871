package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"videocdn/internal/chunk"
	"videocdn/internal/edge"
	"videocdn/internal/store"
)

// buildServer builds the real cdnserver binary into dir.
func buildServer(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "cdnserver")
	if out, err := exec.Command("go", "build", "-o", bin, "videocdn/cmd/cdnserver").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestGracefulShutdown is the end-to-end exercise of the real binary:
// build cdnserver, boot it on an ephemeral port with -store slab
// against an in-process origin, hammer it with concurrent range
// requests, SIGTERM it mid-flight, and assert the drain
// contract — no request that received headers loses its body, the
// process exits 0, the -stats-out snapshot lands on disk, and the
// slab store reopens with the filled chunks intact.
func TestGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the real binary")
	}

	const chunkSize = 1024
	tmp := t.TempDir()
	bin := buildServer(t, tmp)

	// Catalog sized to fit the 64-chunk disk with headroom, so nothing
	// is evicted and the post-shutdown store contents are predictable.
	catalog := edge.MapCatalog{
		1: 40 * chunkSize,
		2: 10*chunkSize + 123,
		3: 5 * chunkSize,
	}
	origin, err := edge.NewOrigin(catalog, chunkSize)
	if err != nil {
		t.Fatal(err)
	}
	originSrv := httptest.NewServer(origin)
	defer originSrv.Close()

	dataDir := filepath.Join(tmp, "slab")
	if err := os.Mkdir(dataDir, 0o755); err != nil {
		t.Fatal(err)
	}
	statsPath := filepath.Join(tmp, "stats.json")
	cmd := exec.Command(bin,
		"-mode", "edge",
		"-listen", "127.0.0.1:0",
		"-origin", originSrv.URL,
		"-redirect", "http://alt.example:1",
		"-algo", "cafe",
		"-chunk-mb", fmt.Sprintf("%.12g", float64(chunkSize)/(1<<20)),
		"-disk-gb", fmt.Sprintf("%.12g", 64*float64(chunkSize)/(1<<30)),
		"-store", "slab",
		"-data", dataDir,
		"-stats-out", statsPath,
		"-drain", "5s",
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The binary logs "listening on <addr>" once the socket is bound;
	// keep draining stderr afterwards so the child never blocks on it.
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			t.Logf("cdnserver: %s", line)
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addrc <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
	}()
	var base string
	select {
	case addr := <-addrc:
		base = "http://" + addr
	case <-time.After(10 * time.Second):
		t.Fatal("server never logged its listen address")
	}

	client := &http.Client{
		Timeout: 10 * time.Second,
		// The degrade/admission target is intentionally unresolvable;
		// the test wants the edge's own 302, not its destination.
		CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}

	// Warm phase: repeat one chunk-aligned request until cafe admits it
	// and the edge serves bytes (the first hits may 302 by design).
	var warmBody []byte
	for tries := 0; ; tries++ {
		if tries == 50 {
			t.Fatal("chunk 1/0 never served 200 after 50 attempts")
		}
		resp, err := client.Get(base + "/video?v=1&start=0&end=1023")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusPartialContent {
			warmBody = body
			break
		}
		if resp.StatusCode != http.StatusFound {
			t.Fatalf("warm request: unexpected status %d: %s", resp.StatusCode, body)
		}
	}
	want := make([]byte, chunkSize)
	edge.ChunkData(1, 0, want)
	if !bytes.Equal(warmBody, want) {
		t.Fatal("warm 206 body diverges from the content function")
	}

	// Hammer phase: concurrent workers issue range requests in a loop.
	// A worker stops at the first transport-level error (the listener
	// has closed); a response that delivered headers but not its full
	// body is a dropped in-flight request and fails the test.
	targets := []string{
		base + "/video?v=1",                     // whole video, 40 chunks
		base + "/video?v=1&start=0&end=20479",   // 20-chunk prefix
		base + "/video?v=2",                     // tail-chunk video
		base + "/video?v=2&start=5000&end=9999", // interior range
		base + "/video?v=3&start=1024&end=5119", // suffix of the short video
	}
	sizes := map[string]int64{
		targets[0]: 40 * chunkSize,
		targets[1]: 20480,
		targets[2]: 10*chunkSize + 123,
		targets[3]: 5000,
		targets[4]: 4096,
	}
	var (
		wg        sync.WaitGroup
		completed atomic.Int64 // responses fully read, any status
		served    atomic.Int64 // 200/206 bodies verified complete
		dropped   atomic.Int64 // headers received, body truncated
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				url := targets[(w+i)%len(targets)]
				resp, err := client.Get(url)
				if err != nil {
					return // listener closed (or refused): acceptable
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					dropped.Add(1)
					t.Errorf("in-flight request dropped mid-body: %s: %v", url, err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK, http.StatusPartialContent:
					if int64(len(body)) != sizes[url] {
						dropped.Add(1)
						t.Errorf("%s: got %d bytes, want %d", url, len(body), sizes[url])
						return
					}
					served.Add(1)
				case http.StatusFound:
					// admission redirect: valid, empty-bodied
				default:
					t.Errorf("%s: unexpected status %d", url, resp.StatusCode)
					return
				}
				completed.Add(1)
			}
		}(w)
	}

	// Let the workers build up traffic, then pull the plug mid-flight.
	for completed.Load() < 40 {
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	waitc := make(chan error, 1)
	go func() { waitc <- cmd.Wait() }()
	select {
	case err := <-waitc:
		if err != nil {
			t.Fatalf("cdnserver exited with %v, want clean exit", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("cdnserver did not exit within 15s of SIGTERM")
	}
	if dropped.Load() != 0 {
		t.Fatalf("%d in-flight requests dropped during drain", dropped.Load())
	}
	t.Logf("completed %d requests (%d served bodies) across the shutdown", completed.Load(), served.Load())

	// The -stats-out snapshot must exist, parse, and agree with what
	// the clients observed.
	raw, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatalf("stats snapshot not written: %v", err)
	}
	var stats edge.Stats
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatalf("stats snapshot not valid JSON: %v\n%s", err, raw)
	}
	if stats.Served < served.Load()+1 { // +1 for the warm request
		t.Errorf("stats served=%d < %d client-verified serves", stats.Served, served.Load()+1)
	}
	if stats.FillErrors != 0 {
		t.Errorf("fill errors against a healthy origin: %d", stats.FillErrors)
	}
	if stats.CachedChunks == 0 {
		t.Error("no chunks cached after the workload")
	}

	// The slab store must reopen cleanly with the warm chunk intact
	// (the catalog fits the disk, so nothing was evicted).
	s, err := store.NewSlab(dataDir, store.SlabConfig{SlotBytes: chunkSize})
	if err != nil {
		t.Fatalf("store did not reopen after shutdown: %v", err)
	}
	defer s.Close()
	if s.Len() != stats.CachedChunks {
		t.Errorf("reopened store holds %d chunks, stats snapshot says %d", s.Len(), stats.CachedChunks)
	}
	got, err := s.Get(chunk.ID{Video: 1, Index: 0}, nil)
	if err != nil {
		t.Fatalf("warm chunk missing from reopened store: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("warm chunk corrupt in reopened store")
	}
}

// TestRemovedFillFlagsRejected: fills commit on the serve path and
// nowhere else; the flags that selected and sized the write-behind
// queue are gone, and passing one is a usage error, not a silent no-op.
func TestRemovedFillFlagsRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the real binary")
	}
	bin := buildServer(t, t.TempDir())
	for _, args := range [][]string{{"-fill-async"}, {"-fill-queue", "8"}} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err == nil {
			t.Errorf("cdnserver %v exited 0, want a flag-parsing failure", args)
		}
		if want := "flag provided but not defined: " + args[0]; !strings.Contains(string(out), want) {
			t.Errorf("cdnserver %v: output lacks %q:\n%s", args, want, out)
		}
	}
}
