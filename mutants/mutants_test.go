package mutants

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildAllowance is how long an entry's go test may take beyond its
// test binaries' -timeout, for compiling and linking. Past it the whole
// process group is killed.
const buildAllowance = 5 * time.Minute

// verdict is one line of SURVIVORS: "<name> | <verdict> | <done>".
// done begins with "open" while the mutant still survives; once the
// verdict is acted on it says how — for "add the test", the test that
// now kills the mutant comes first.
type verdict struct {
	name, verdict, done string
}

func (v verdict) open() bool { return firstWord(v.done) == "open" }

func readSurvivors(t *testing.T) map[string]verdict {
	t.Helper()
	f, err := os.Open("SURVIVORS")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]verdict{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, "|")
		if len(parts) != 3 {
			t.Fatalf("SURVIVORS:%d: want <name> | <verdict> | <done>, got %q", n, line)
		}
		v := verdict{strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]), strings.TrimSpace(parts[2])}
		if v.verdict != "delete the code" && v.verdict != "add the test" {
			t.Fatalf("SURVIVORS:%d: verdict %q is neither \"delete the code\" nor \"add the test\"", n, v.verdict)
		}
		if _, dup := out[v.name]; dup {
			t.Fatalf("SURVIVORS:%d: %s listed twice", n, v.name)
		}
		out[v.name] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// outcome is what one mutant's go test run came to.
type outcome struct {
	survived bool
	killers  []string // failed leaf tests, and "timeout after … in TestX"
	elapsed  time.Duration
}

var (
	failLine    = regexp.MustCompile(`(?m)^\s*--- FAIL: (\S+)`)
	timeoutLine = regexp.MustCompile(`(?m)^panic: test timed out after (\S+)`)
	runningTest = regexp.MustCompile(`(?m)^\t\t(Test\S*) \(`)
	buildFailed = regexp.MustCompile(`\[(build|setup) failed\]`)
)

// TestMutants applies every entry of Table and requires the entry's
// tests to fail, except for the open survivors SURVIVORS lists, which
// must still pass.
func TestMutants(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	survivors := readSurvivors(t)
	names := map[string]bool{}
	for _, m := range Table {
		if names[m.Name] {
			t.Fatalf("two entries are named %s", m.Name)
		}
		names[m.Name] = true
	}
	for _, v := range survivors {
		if v.verdict == "delete the code" && !v.open() && names[v.name] {
			t.Errorf("SURVIVORS: %s's code was deleted, so the table must not hold it", v.name)
		}
		if (v.open() || v.verdict == "add the test") && !names[v.name] {
			t.Errorf("SURVIVORS: %s is not an entry of the table", v.name)
		}
	}

	var summary strings.Builder
	for _, m := range Table {
		t.Run(m.Name, func(t *testing.T) {
			o := apply(t, root, m)
			v, listed := survivors[m.Name]
			switch {
			case o.survived && listed && v.open():
				t.Logf("survives, as SURVIVORS lists (%s), in %.1fs", v.verdict, o.elapsed.Seconds())
			case o.survived:
				t.Errorf("survives: no test of %v run %q fails with it; give it a verdict in SURVIVORS", m.Packages, m.Run)
			case listed && v.open():
				t.Errorf("SURVIVORS lists it as open, but it dies now (%s): settle its line", list(o.killers))
			case listed && !killedBy(o.killers, firstWord(v.done)):
				t.Errorf("SURVIVORS says %s kills it, but the killers are %s", firstWord(v.done), list(o.killers))
			default:
				t.Logf("killed in %.1fs by %s", o.elapsed.Seconds(), list(o.killers))
			}
			fmt.Fprintf(&summary, "%-36s %6.1fs  %s\n", m.Name, o.elapsed.Seconds(), list(o.killers))
		})
	}
	t.Logf("mutant, seconds, killing tests:\n%s", summary.String())
}

// apply runs m's tests with m's edit laid over its file and classifies
// the result. It fails t for a broken entry: a fragment that is not in
// the file exactly once, a mutant that does not compile, or a go test
// that outlives its budget or leaves processes behind.
func apply(t *testing.T, root string, m Mutant) outcome {
	path := filepath.Join(root, filepath.FromSlash(m.File))
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v", m.Name, err)
	}
	if n := strings.Count(string(src), m.Old); n != 1 {
		t.Fatalf("%s: its old fragment occurs %d times in %s, want exactly once; mend the entry with the code", m.Name, n, m.File)
	}
	if m.Old == m.New {
		t.Fatalf("%s: old and new are the same", m.Name)
	}
	dir := t.TempDir()
	patched := filepath.Join(dir, filepath.Base(path))
	if err := os.WriteFile(patched, []byte(strings.Replace(string(src), m.Old, m.New, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	overlay, err := json.Marshal(map[string]map[string]string{"Replace": {path: patched}})
	if err != nil {
		t.Fatal(err)
	}
	overlayFile := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
		t.Fatal(err)
	}

	timeout := m.Timeout
	if timeout == 0 {
		timeout = DefaultTimeout
	}
	args := []string{"test", "-overlay=" + overlayFile, "-count=1", "-vet=off", "-timeout=" + timeout.String()}
	if m.Run != "" {
		args = append(args, "-run="+m.Run)
	}
	if m.Race {
		args = append(args, "-race")
	}
	args = append(args, m.Packages...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	// Its own process group, so that the group can be killed, and
	// checked for leftovers, as a whole.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	pgid := cmd.Process.Pid
	budget := timeout + buildAllowance
	// The kill's error is moot: a group already gone needs no kill.
	overran := time.AfterFunc(budget, func() { _ = syscall.Kill(-pgid, syscall.SIGKILL) })
	err = cmd.Wait()
	output, o := out.Bytes(), outcome{elapsed: time.Since(start)}
	if !overran.Stop() {
		t.Fatalf("%s: go test ran past its budget of %v and was killed\n%s", m.Name, budget, tail(output))
	}
	if syscall.Kill(-pgid, 0) == nil {
		_ = syscall.Kill(-pgid, syscall.SIGKILL) // reported either way, below
		t.Fatalf("%s: go test left processes of its group behind; they were killed", m.Name)
	}
	var exit *exec.ExitError
	switch {
	case err == nil:
		o.survived = true
		return o
	case !errors.As(err, &exit):
		t.Fatalf("%s: go test: %v", m.Name, err)
	}
	if buildFailed.Match(output) {
		t.Fatalf("%s: the mutant does not compile, which is a broken entry, not a kill\n%s", m.Name, tail(output))
	}
	if tm := timeoutLine.FindSubmatch(output); tm != nil {
		k := "timeout after " + string(tm[1])
		if rt := runningTest.FindSubmatch(output[bytes.Index(output, tm[0]):]); rt != nil {
			k += " in " + string(rt[1])
		}
		o.killers = append(o.killers, k)
	}
	o.killers = append(o.killers, failedLeaves(output)...)
	if len(o.killers) == 0 {
		t.Fatalf("%s: go test failed, but no test failed and none timed out\n%s", m.Name, tail(output))
	}
	return o
}

// list joins the first four killers, and counts the rest.
func list(killers []string) string {
	if len(killers) > 4 {
		return fmt.Sprintf("%s and %d more", strings.Join(killers[:4], ", "), len(killers)-4)
	}
	return strings.Join(killers, ", ")
}

// failedLeaves lists the failed tests of a go test output that have no
// failed subtest, in the order they are reported.
func failedLeaves(out []byte) []string {
	var failed []string
	seen := map[string]bool{}
	for _, fm := range failLine.FindAllSubmatch(out, -1) {
		if name := string(fm[1]); !seen[name] {
			seen[name] = true
			failed = append(failed, name)
		}
	}
	var leaves []string
	for _, name := range failed {
		parent := false
		for _, other := range failed {
			parent = parent || strings.HasPrefix(other, name+"/")
		}
		if !parent {
			leaves = append(leaves, name)
		}
	}
	return leaves
}

// killedBy reports whether test, or one of its subtests, failed or
// timed out.
func killedBy(killers []string, test string) bool {
	for _, k := range killers {
		if k == test || strings.HasPrefix(k, test+"/") || strings.HasSuffix(k, " in "+test) {
			return true
		}
	}
	return false
}

func firstWord(s string) string {
	if f := strings.Fields(s); len(f) > 0 {
		return strings.TrimRight(f[0], ":;,.")
	}
	return ""
}

// tail is the end of a go test's output, enough to show why it failed.
func tail(out []byte) []byte {
	const max = 4 << 10
	if len(out) > max {
		return out[len(out)-max:]
	}
	return out
}
