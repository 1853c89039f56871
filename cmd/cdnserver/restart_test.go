package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"videocdn/internal/core"
	"videocdn/internal/cost"
	"videocdn/internal/edge"
	"videocdn/internal/policy"
	"videocdn/internal/sim"
	"videocdn/internal/store"
	"videocdn/internal/trace"
)

const (
	restartChunk = 1024
	restartDisk  = 64 // chunks; the catalog's 56 fit, so nothing is evicted
)

// restartRig is an origin and the flags of a cafe edge over a slab
// store that logs its requests, both under one temp directory.
type restartRig struct {
	bin                     string
	args                    []string
	dataDir, logDir         string
	client                  *http.Client
	originURL, diskGBString string
}

func newRestartRig(t *testing.T) *restartRig {
	t.Helper()
	tmp := t.TempDir()
	origin, err := edge.NewOrigin(edge.MapCatalog{1: 40 * restartChunk, 2: 10*restartChunk + 123, 3: 5 * restartChunk}, restartChunk)
	if err != nil {
		t.Fatal(err)
	}
	originSrv := httptest.NewServer(origin)
	t.Cleanup(originSrv.Close)
	r := &restartRig{
		bin:          buildServer(t, tmp),
		dataDir:      filepath.Join(tmp, "slab"),
		logDir:       filepath.Join(tmp, "log"),
		originURL:    originSrv.URL,
		diskGBString: fmt.Sprintf("%.12g", restartDisk*float64(restartChunk)/(1<<30)),
		client: &http.Client{
			Timeout:       10 * time.Second,
			CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
		},
	}
	r.args = []string{"-mode", "edge", "-listen", "127.0.0.1:0",
		"-origin", r.originURL, "-redirect", "http://alt.example:1", "-algo", "cafe",
		"-chunk-mb", fmt.Sprintf("%.12g", float64(restartChunk)/(1<<20)),
		"-disk-gb", r.diskGBString,
		"-store", "slab", "-data", r.dataDir, "-request-log", r.logDir, "-drain", "5s"}
	return r
}

// proc is one running cdnserver child and the lines it has logged.
type proc struct {
	cmd  *exec.Cmd
	base string
	eof  chan struct{}
	mu   sync.Mutex
	logs []string
}

// start launches the edge and waits for its listen line.
func (r *restartRig) start(t *testing.T) *proc {
	t.Helper()
	p := &proc{cmd: exec.Command(r.bin, r.args...), eof: make(chan struct{})}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.cmd.Process.Kill() })
	addrc := make(chan string, 1)
	go func() {
		defer close(p.eof)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.logs = append(p.logs, line)
			p.mu.Unlock()
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addrc <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrc:
		p.base = "http://" + addr
	case <-p.eof:
		t.Fatalf("cdnserver exited before listening:\n%s", p.logged())
	case <-time.After(10 * time.Second):
		t.Fatal("cdnserver never logged its listen address")
	}
	return p
}

func (p *proc) logged() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.logs, "\n")
}

// stop sends sig and waits for the exit, returning its error.
func (p *proc) stop(t *testing.T, sig syscall.Signal) error {
	t.Helper()
	if err := p.cmd.Process.Signal(sig); err != nil && !errors.Is(err, os.ErrProcessDone) {
		t.Fatal(err)
	}
	select {
	case <-p.eof:
	case <-time.After(15 * time.Second):
		t.Fatal("cdnserver did not exit within 15s")
	}
	err := p.cmd.Wait()
	t.Logf("cdnserver:\n%s", p.logged())
	return err
}

// get fetches one range and returns its status and body.
func (r *restartRig) get(t *testing.T, p *proc, query string) (int, []byte) {
	t.Helper()
	resp, err := r.client.Get(p.base + "/video?" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// warm repeats the first chunk of video 1 until cafe admits it.
func (r *restartRig) warm(t *testing.T, p *proc) {
	t.Helper()
	for tries := 0; tries < 50; tries++ {
		if code, _ := r.get(t, p, "v=1&start=0&end=1023"); code == http.StatusPartialContent {
			return
		}
	}
	t.Fatal("chunk 1/0 never served 206 after 50 attempts")
}

// traffic issues range requests from workers clients until stop
// returns true; every answer must be a 206 or an admission 302.
func (r *restartRig) traffic(t *testing.T, p *proc, workers int, stop func(done int64) bool) {
	t.Helper()
	queries := []string{"v=1", "v=1&start=0&end=20479", "v=2", "v=2&start=5000&end=9999", "v=3&start=1024&end=5119"}
	var done atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; !stop(done.Load()); i++ {
				resp, err := r.client.Get(p.base + "/video?" + queries[i%len(queries)])
				if err != nil {
					return // the edge is gone: the crash test kills it mid-traffic
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusPartialContent && resp.StatusCode != http.StatusFound {
					t.Errorf("%s: status %d", queries[i%len(queries)], resp.StatusCode)
					return
				}
				done.Add(1)
			}
		}(w)
	}
	wg.Wait()
}

// checkFirstChunkServes requires the restarted edge to answer the
// chunk warmed before the restart with a 206 within 2 s, from the
// store: no bytes filled.
func (r *restartRig) checkFirstChunkServes(t *testing.T, p *proc) {
	t.Helper()
	fast := *r.client
	fast.Timeout = 2 * time.Second
	resp, err := fast.Get(p.base + "/video?v=1&start=0&end=1023")
	if err != nil {
		t.Fatalf("first request after the restart: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("first request after the restart: status %d, %v", resp.StatusCode, err)
	}
	want := make([]byte, restartChunk)
	edge.ChunkData(1, 0, want)
	if !bytes.Equal(body, want) {
		t.Fatal("first request after the restart: body diverges from the content function")
	}
	resp, err = r.client.Get(p.base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var st edge.Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.FilledBytes != 0 {
		t.Fatalf("the warmed chunk was filled again (%d bytes) instead of served from the store", st.FilledBytes)
	}
}

// checkStoreWithinLog replays the log into a fresh cafe of the edge's
// configuration and requires every stored chunk to be one it holds.
func (r *restartRig) checkStoreWithinLog(t *testing.T) {
	t.Helper()
	diskGB, err := strconv.ParseFloat(r.diskGBString, 64)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := policy.Factory("cafe", policy.Env{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := factory(0, core.Config{ChunkSize: restartChunk, DiskChunks: int(diskGB * (1 << 30) / restartChunk)})
	if err != nil {
		t.Fatal(err)
	}
	d, err := trace.OpenDir(r.logDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Replay(c, d, cost.Model{}, sim.Options{}); err != nil {
		t.Fatal(err)
	}
	slab, err := store.NewSlab(r.dataDir, store.SlabConfig{SlotBytes: restartChunk})
	if err != nil {
		t.Fatal(err)
	}
	defer slab.Close()
	keys := slab.Keys()
	for _, id := range keys {
		if !c.Contains(id) {
			t.Fatalf("store holds %v, which the logged policy does not", id)
		}
	}
	if len(keys) == 0 || len(keys) > restartDisk {
		t.Fatalf("store holds %d chunks, want 1 to %d", len(keys), restartDisk)
	}
}

// TestRestartAfterGracefulExit serves traffic for over a second, stops
// the edge with SIGTERM and restarts it over the same request log and
// slab store: its first request is a 206 within 2 s, served from the
// store, and the store holds only chunks the logged policy holds. The
// Cafe-only -state snapshot this replaces is an unknown flag.
func TestRestartAfterGracefulExit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the real binary")
	}
	r := newRestartRig(t)
	out, err := exec.Command(r.bin, "-state", "x").CombinedOutput()
	if want := "flag provided but not defined: -state"; err == nil || !strings.Contains(string(out), want) {
		t.Errorf("cdnserver -state: %v, output lacks %q:\n%s", err, want, out)
	}

	p := r.start(t)
	r.warm(t, p)
	until := time.Now().Add(1300 * time.Millisecond)
	r.traffic(t, p, 2, func(int64) bool { return time.Now().After(until) })
	if err := p.stop(t, syscall.SIGTERM); err != nil {
		t.Fatalf("cdnserver exited with %v, want a clean exit", err)
	}

	p = r.start(t)
	r.checkFirstChunkServes(t, p)
	if err := p.stop(t, syscall.SIGTERM); err != nil {
		t.Fatalf("restarted cdnserver exited with %v, want a clean exit", err)
	}
	r.checkStoreWithinLog(t)
}

// TestRestartAfterCrash kills the edge with SIGKILL mid-traffic and
// restarts it: boot repairs the part the crash left unfinished, keeping
// only whole blocks, the chunk warmed before the crash is served from
// the store, and the store holds only chunks the logged policy holds.
func TestRestartAfterCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the real binary")
	}
	r := newRestartRig(t)
	p := r.start(t)
	r.warm(t, p)
	var killed sync.Once
	r.traffic(t, p, 4, func(done int64) bool {
		if done < 3*trace.LogBlockRecords {
			return false
		}
		killed.Do(func() { p.cmd.Process.Signal(syscall.SIGKILL) })
		return true
	})
	if err := p.stop(t, syscall.SIGKILL); err == nil {
		t.Fatal("cdnserver exited cleanly after SIGKILL")
	}

	p = r.start(t)
	if !strings.Contains(p.logged(), "replayed request log") {
		t.Errorf("boot did not report the replay:\n%s", p.logged())
	}
	d, err := trace.OpenDir(r.logDir)
	if err != nil {
		t.Fatal(err)
	}
	man := d.Manifest()
	if len(man.Segments) != 1 || man.Requests == 0 || man.Requests%trace.LogBlockRecords != 0 {
		t.Fatalf("repaired log: %d parts, %d records; want one part of whole %d-record blocks",
			len(man.Segments), man.Requests, trace.LogBlockRecords)
	}
	r.checkFirstChunkServes(t, p)
	if err := p.stop(t, syscall.SIGTERM); err != nil {
		t.Fatalf("restarted cdnserver exited with %v, want a clean exit", err)
	}
	r.checkStoreWithinLog(t)
}
