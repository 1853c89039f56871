package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"videocdn/internal/edge"
)

// buildDir holds everything the benchmark writes besides bench/out:
// the cdnserver binary and one fresh data directory per child set.
const buildDir = ".bench_build"

// buildServer compiles cmd/cdnserver of the checkout at root and
// returns the binary's path and the build time, which is reported on
// its own and is no part of setup_s.
func buildServer(root string) (string, time.Duration, error) {
	abs, err := filepath.Abs(filepath.Join(root, buildDir))
	if err != nil {
		return "", 0, err
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		return "", 0, err
	}
	bin := filepath.Join(abs, "cdnserver")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-C", root, "-o", bin, "./cmd/cdnserver")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/cdnserver: %v\n%s", err, out)
	}
	return bin, time.Since(t0), nil
}

// child is one cdnserver process.
type child struct {
	cmd  *exec.Cmd
	addr string // resolved listen address, from the child's log
	tail *logTail
}

var listenLine = regexp.MustCompile(`listening on (\S+:\d+)$`)

// logTail keeps the last lines of a child's log for error reports and
// signals the listen address once it appears.
type logTail struct {
	mu    sync.Mutex
	lines []string
	addr  chan string
}

func (l *logTail) consume(r io.Reader) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		l.mu.Lock()
		if l.lines = append(l.lines, line); len(l.lines) > 20 {
			l.lines = l.lines[1:]
		}
		l.mu.Unlock()
		if m := listenLine.FindStringSubmatch(line); m != nil {
			select {
			case l.addr <- m[1]:
			default:
			}
		}
	}
}

func (l *logTail) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

// startChild launches cdnserver on a port the kernel picks and waits
// for its listen line. The child dies with this process whatever kills
// it (Pdeathsig), besides the orderly stop every exit path runs.
func startChild(bin string, args ...string) (*child, error) {
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0", "-drain", "2s"}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, tail: &logTail{addr: make(chan string, 1)}}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go c.tail.consume(stderr)
	select {
	case c.addr = <-c.tail.addr:
		return c, nil
	case <-time.After(20 * time.Second):
		c.stop()
		return nil, fmt.Errorf("%s %v: no listen line after 20s; log:\n%s", filepath.Base(bin), args, c.tail)
	}
}

// stop drains the child with SIGTERM, kills it if the drain overruns,
// and reaps it. Safe to call twice.
func (c *child) stop() {
	if c == nil || c.cmd.ProcessState != nil {
		return
	}
	c.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { c.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		c.cmd.Process.Kill()
		<-done
	}
}

// procCPU is utime+stime of pid from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the name.
	i := strings.LastIndexByte(string(data), ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	const clockTick = 100 // USER_HZ on every Linux the Go runtime supports
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// procPeakRSS is VmHWM of pid in MB.
func procPeakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// freePort asks the kernel for a free loopback port. Only the pprof
// listener needs it: cdnserver logs that flag as given, not resolved.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// ---------- the stack under test ----------

// stack is an origin and an edge child over a fresh data directory.
type stack struct {
	origin, edge *child
	dir          string
	pprofAddr    string
	http         *http.Client
}

// startStack launches origin then edge for workload w.
func startStack(bin, root string, w *workload) (*stack, error) {
	tmp := filepath.Join(root, buildDir, "run")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, w.Name+"-")
	if err != nil {
		return nil, err
	}
	s := &stack{dir: dir, http: &http.Client{Timeout: 10 * time.Second}}
	s.register()
	chunkMB := strconv.FormatFloat(float64(w.ChunkBytes)/(1<<20), 'g', -1, 64)
	s.origin, err = startChild(bin, "-mode", "origin", "-chunk-mb", chunkMB,
		"-origin-min-mb", strconv.Itoa(w.VideoMB), "-origin-max-mb", strconv.Itoa(w.VideoMB))
	if err != nil {
		s.stop()
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		s.stop()
		return nil, err
	}
	s.pprofAddr = fmt.Sprintf("127.0.0.1:%d", port)
	args := []string{"-mode", "edge", "-chunk-mb", chunkMB,
		"-origin", "http://" + s.origin.addr, "-redirect", redirectBase,
		"-algo", w.Policy, "-alpha", strconv.FormatFloat(w.Alpha, 'g', -1, 64),
		"-disk-gb", strconv.FormatFloat(float64(int64(w.DiskChunks)*w.ChunkBytes)/(1<<30), 'g', -1, 64),
		"-store", "slab", "-data", filepath.Join(dir, "slab"),
		"-hot-mb", strconv.FormatInt(w.HotMB, 10), "-pprof", s.pprofAddr}
	if w.StoreMmap {
		args = append(args, "-store-mmap")
	}
	if s.edge, err = startChild(bin, args...); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop drains and reaps both children and removes their data.
func (s *stack) stop() {
	live.mu.Lock()
	delete(live.stacks, s)
	live.mu.Unlock()
	s.edge.stop()
	s.origin.stop()
	os.RemoveAll(s.dir)
}

// stats fetches the edge's /stats and checks the server's own Eq. 2
// figure against a recomputation from its byte counters, bit for bit.
func (s *stack) stats() (edge.Stats, error) {
	var st edge.Stats
	resp, err := s.http.Get("http://" + s.edge.addr + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("/stats: %w", err)
	}
	return st, checkEq2(st)
}

var memStatLine = regexp.MustCompile(`(?m)^# (Mallocs|NumGC|PauseNs) = (.+)$`)

// serverMem is the part of the child's runtime.MemStats the report
// uses, scraped from its pprof listener.
type serverMem struct {
	mallocs float64
	numGC   int
	pauseNs []float64 // MemStats.PauseNs: the last 256 pauses, a ring indexed by (NumGC+255)%256
}

// since returns mallocs and total GC pause between two scrapes. The
// pause ring holds 256 cycles; more than that in one window is reported
// as an error rather than undercounted.
func (m serverMem) since(before serverMem) (mallocs float64, pause time.Duration, err error) {
	cycles := m.numGC - before.numGC
	if cycles > len(m.pauseNs) {
		return 0, 0, fmt.Errorf("%d GC cycles in one window overflow the %d-entry pause ring", cycles, len(m.pauseNs))
	}
	for j := 1; j <= cycles; j++ {
		pause += time.Duration(m.pauseNs[(m.numGC-j+len(m.pauseNs))%len(m.pauseNs)])
	}
	return m.mallocs - before.mallocs, pause, nil
}

// memStats reads the child's MemStats from /debug/pprof/heap?debug=1.
// The scrape stops the child's world for a moment, so it is taken
// before and after a measured window, never inside one.
func (s *stack) memStats() (serverMem, error) {
	var m serverMem
	resp, err := s.http.Get("http://" + s.pprofAddr + "/debug/pprof/heap?debug=1")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return m, err
	}
	found := 0
	for _, kv := range memStatLine.FindAllStringSubmatch(string(body), -1) {
		switch kv[1] {
		case "Mallocs":
			m.mallocs, err = strconv.ParseFloat(kv[2], 64)
		case "NumGC":
			m.numGC, err = strconv.Atoi(kv[2])
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(kv[2], "[]")) {
				var v float64
				if v, err = strconv.ParseFloat(f, 64); err != nil {
					break
				}
				m.pauseNs = append(m.pauseNs, v)
			}
		}
		if err != nil {
			return m, fmt.Errorf("pprof heap profile: %q: %w", kv[0], err)
		}
		found++
	}
	if found != 3 || len(m.pauseNs) == 0 {
		return m, fmt.Errorf("pprof heap profile: %d of 3 MemStats lines found", found)
	}
	return m, nil
}

// live is every stack not yet stopped, so the signal handler can drain
// them; runs stop their own stacks on every ordinary path.
var live struct {
	mu     sync.Mutex
	stacks map[*stack]struct{}
}

func (s *stack) register() {
	live.mu.Lock()
	defer live.mu.Unlock()
	if live.stacks == nil {
		live.stacks = map[*stack]struct{}{}
	}
	live.stacks[s] = struct{}{}
}

func stopAllStacks() {
	live.mu.Lock()
	stacks := live.stacks
	live.stacks = nil
	live.mu.Unlock()
	for s := range stacks {
		s.stop()
	}
}
