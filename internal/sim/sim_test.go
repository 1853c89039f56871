package sim

import (
	"math"
	"strings"
	"testing"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/cost"
	"videocdn/internal/trace"
	"videocdn/internal/xlru"
)

const testK = 1024

func req(t int64, v chunk.VideoID, c0, c1 int) trace.Request {
	return trace.Request{Time: t, Video: v, Start: int64(c0) * testK, End: int64(c1+1)*testK - 1}
}

// scripted is a fake cache returning pre-programmed outcomes.
type scripted struct {
	outs []core.Outcome
	i    int
}

func (s *scripted) HandleRequest(trace.Request) core.Outcome {
	o := s.outs[s.i]
	s.i++
	return o
}
func (s *scripted) Contains(chunk.ID) bool { return false }
func (s *scripted) Len() int               { return 0 }
func (s *scripted) Name() string           { return "scripted" }

func TestReplayValidation(t *testing.T) {
	m := cost.MustModel(1)
	if _, err := Replay(nil, trace.Slice([]trace.Request{req(0, 1, 0, 0)}), m, Options{}); err == nil {
		t.Error("nil cache should fail")
	}
	c, _ := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 4}, 1)
	if _, err := Replay(c, nil, m, Options{}); err == nil {
		t.Error("empty trace should fail")
	}
	if _, err := Replay(c, trace.Slice([]trace.Request{req(0, 1, 0, 0)}), m, Options{SteadyFraction: 1.5}); err == nil {
		t.Error("bad steady fraction should fail")
	}
	if _, err := Replay(c, trace.Slice([]trace.Request{req(10, 1, 0, 0), req(5, 1, 0, 0)}), m, Options{}); err == nil {
		t.Error("out-of-order trace should fail")
	}
}

func TestAccountingConservation(t *testing.T) {
	// Scripted: serve-with-fill, redirect, pure hit.
	s := &scripted{outs: []core.Outcome{
		{Decision: core.Serve, FilledChunks: 2, FilledBytes: 2 * testK},
		{Decision: core.Redirect},
		{Decision: core.Serve},
	}}
	reqs := []trace.Request{
		req(0, 1, 0, 1),  // 2048 bytes requested
		req(10, 2, 0, 3), // 4096 bytes redirected
		req(20, 1, 0, 1), // 2048 bytes hit
	}
	m := cost.MustModel(1)
	res, err := Replay(s, trace.Slice(reqs), m, Options{SteadyFraction: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Requested != 2048+4096+2048 {
		t.Errorf("Requested = %d", res.Total.Requested)
	}
	if res.Total.Filled != 2*testK {
		t.Errorf("Filled = %d", res.Total.Filled)
	}
	if res.Total.Redirected != 4096 {
		t.Errorf("Redirected = %d", res.Total.Redirected)
	}
	if res.Served != 2 || res.Redirected != 1 {
		t.Errorf("decision counts: %d/%d", res.Served, res.Redirected)
	}
	if res.FilledChunks != 2 {
		t.Errorf("FilledChunks = %d", res.FilledChunks)
	}
	// Manual efficiency: 1 - 2048/8192 - 4096/8192 = 0.25.
	// SteadyFraction ~0: steady covers requests at t >= ~0... first
	// request lands at t=0 which is >= steadyFrom only if steadyFrom=0;
	// with fraction 0.001 over span 20, steadyFrom=0 -> includes all.
	if got := res.Efficiency(); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("Efficiency = %v, want 0.25", got)
	}
}

func TestRedirectWithFillRejected(t *testing.T) {
	s := &scripted{outs: []core.Outcome{
		{Decision: core.Redirect, FilledChunks: 1, FilledBytes: testK},
	}}
	m := cost.MustModel(1)
	if _, err := Replay(s, trace.Slice([]trace.Request{req(0, 1, 0, 0)}), m, Options{}); err == nil {
		t.Error("redirect with fills must be rejected as an accounting violation")
	}
}

func TestSteadyExcludesWarmup(t *testing.T) {
	// Four requests over [0, 100]; steady fraction 0.5 -> t >= 50.
	s := &scripted{outs: []core.Outcome{
		{Decision: core.Serve, FilledChunks: 1, FilledBytes: testK},
		{Decision: core.Serve, FilledChunks: 1, FilledBytes: testK},
		{Decision: core.Serve},
		{Decision: core.Serve},
	}}
	reqs := []trace.Request{
		req(0, 1, 0, 0), req(40, 2, 0, 0), req(60, 1, 0, 0), req(100, 2, 0, 0),
	}
	m := cost.MustModel(1)
	res, err := Replay(s, trace.Slice(reqs), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steady.Requested != 2*testK || res.Steady.Filled != 0 {
		t.Errorf("Steady = %+v: warmup fills leaked in", res.Steady)
	}
	if res.Total.Filled != 2*testK {
		t.Errorf("Total = %+v", res.Total)
	}
	if got := res.Efficiency(); got != 1 {
		t.Errorf("steady efficiency = %v, want 1 (all hits)", got)
	}
}

// TestObserveChargesOutOfBandFills: the hook sees every request with
// its outcome, after accounting, and the bytes it reports are charged
// as fills at the request's time: to Total, to Steady only from the
// cutoff on, and to the series' bucket. A negative report is an error.
func TestObserveChargesOutOfBandFills(t *testing.T) {
	outs := []core.Outcome{
		{Decision: core.Serve, FilledChunks: 1, FilledBytes: testK},
		{Decision: core.Redirect},
		{Decision: core.Serve},
	}
	reqs := []trace.Request{req(0, 1, 0, 0), req(40, 2, 0, 0), req(7200, 1, 0, 0)}
	var seen []core.Decision
	observe := func(r trace.Request, out core.Outcome) int64 {
		if r != reqs[len(seen)] {
			t.Errorf("observed %+v, want %+v", r, reqs[len(seen)])
		}
		seen = append(seen, out.Decision)
		return 3 * testK
	}
	m := cost.MustModel(1)
	res, err := Replay(&scripted{outs: outs}, trace.Slice(reqs), m, Options{Observe: observe})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[0] != core.Serve || seen[1] != core.Redirect || seen[2] != core.Serve {
		t.Errorf("observed decisions %v", seen)
	}
	if res.Total.Filled != testK+3*3*testK || res.Steady.Filled != 3*testK {
		t.Errorf("Total.Filled = %d, Steady.Filled = %d", res.Total.Filled, res.Steady.Filled)
	}
	if res.FilledChunks != 1 || res.Total.Requested != 3*testK {
		t.Errorf("out-of-band fills leaked into request accounting: %+v", res)
	}
	if b := res.Series.Buckets(); len(b) != 3 || b[0].Counters.Filled != testK+2*3*testK || b[2].Counters.Filled != 3*testK {
		t.Errorf("series buckets %+v", b)
	}

	bad := func(trace.Request, core.Outcome) int64 { return -1 }
	if _, err := Replay(&scripted{outs: outs}, trace.Slice(reqs), m, Options{Observe: bad}); err == nil {
		t.Error("a negative out-of-band fill must be rejected")
	}
}

func TestSeriesBuckets(t *testing.T) {
	s := &scripted{outs: []core.Outcome{
		{Decision: core.Serve}, {Decision: core.Serve}, {Decision: core.Serve},
	}}
	reqs := []trace.Request{req(0, 1, 0, 0), req(3600, 1, 0, 0), req(7300, 1, 0, 0)}
	m := cost.MustModel(1)
	res, err := Replay(s, trace.Slice(reqs), m, Options{BucketSeconds: 3600})
	if err != nil {
		t.Fatal(err)
	}
	if res.Series.Len() != 3 {
		t.Errorf("series buckets = %d, want 3", res.Series.Len())
	}
}

func TestProgressCallback(t *testing.T) {
	s := &scripted{outs: make([]core.Outcome, 10)}
	for i := range s.outs {
		s.outs[i] = core.Outcome{Decision: core.Serve}
	}
	var reqs []trace.Request
	for i := 0; i < 10; i++ {
		reqs = append(reqs, req(int64(i), 1, 0, 0))
	}
	calls := 0
	m := cost.MustModel(1)
	_, err := Replay(s, trace.Slice(reqs), m, Options{
		Progress:      func(done, total int) { calls++ },
		ProgressEvery: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("progress calls = %d, want 3", calls)
	}
}

func TestReplayAll(t *testing.T) {
	var reqs []trace.Request
	tm := int64(0)
	for i := 0; i < 300; i++ {
		reqs = append(reqs, req(tm, chunk.VideoID(i%15), 0, i%4))
		tm += 5
	}
	m := cost.MustModel(2)
	mk := func() *xlru.Cache {
		c, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 32}, 2)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	jobs := []Job{
		{Name: "a", Cache: mk(), Model: m},
		{Name: "b", Cache: mk(), Model: m},
		{Cache: mk(), Model: m}, // defaults to cache name
	}
	got, err := ReplayAll(jobs, trace.Slice(reqs), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got["a"] == nil || got["b"] == nil || got["xlru"] == nil {
		t.Fatalf("results: %v", got)
	}
	// Identical caches on the same trace must agree exactly.
	if got["a"].Total != got["b"].Total {
		t.Errorf("parallel replays of identical caches diverged: %+v vs %+v",
			got["a"].Total, got["b"].Total)
	}
	// Serial replay must match the parallel one.
	serial, err := Replay(mk(), trace.Slice(reqs), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Total != got["a"].Total {
		t.Error("parallel result differs from serial")
	}
	// Error propagation.
	bad := []Job{{Name: "bad", Cache: nil, Model: m}}
	if _, err := ReplayAll(bad, trace.Slice(reqs), Options{}); err == nil {
		t.Error("nil cache should surface an error")
	}
}

func TestReplayAllJoinsAllErrors(t *testing.T) {
	var reqs []trace.Request
	for i := 0; i < 10; i++ {
		reqs = append(reqs, req(int64(i), 1, 0, 0))
	}
	m := cost.MustModel(1)
	ok, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{
		{Name: "bad1", Cache: nil, Model: m},
		{Name: "good", Cache: ok, Model: m},
		{Name: "bad2", Cache: nil, Model: m},
	}
	_, err = ReplayAll(jobs, trace.Slice(reqs), Options{})
	if err == nil {
		t.Fatal("expected joined errors")
	}
	// Both failing jobs must be reported, not just the first.
	msg := err.Error()
	if !strings.Contains(msg, "bad1") || !strings.Contains(msg, "bad2") {
		t.Errorf("joined error lost a job: %v", err)
	}
	if strings.Contains(msg, `"good"`) {
		t.Errorf("healthy job appears in error: %v", err)
	}
}

func TestReplayAllFinalProgress(t *testing.T) {
	var reqs []trace.Request
	for i := 0; i < 10; i++ {
		reqs = append(reqs, req(int64(i), chunk.VideoID(i%3), 0, 0))
	}
	m := cost.MustModel(1)
	mk := func() *xlru.Cache {
		c, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 8}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	var lastDone, lastTotal int
	_, err := ReplayAll([]Job{{Name: "a", Cache: mk(), Model: m}}, trace.Slice(reqs), Options{
		Progress: func(done, total int) { lastDone, lastTotal = done, total },
	})
	if err != nil {
		t.Fatal(err)
	}
	if lastDone != len(reqs) || lastTotal != len(reqs) {
		t.Errorf("final progress = (%d, %d), want (%d, %d)", lastDone, lastTotal, len(reqs), len(reqs))
	}
}

func TestReplayWithRealCache(t *testing.T) {
	c, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []trace.Request
	tm := int64(0)
	for i := 0; i < 500; i++ {
		reqs = append(reqs, req(tm, chunk.VideoID(i%20), 0, i%5))
		tm += 7
	}
	m := cost.MustModel(2)
	res, err := Replay(c, trace.Slice(reqs), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "xlru" {
		t.Errorf("Algorithm = %q", res.Algorithm)
	}
	if res.Served+res.Redirected != res.Requests || res.Requests != 500 {
		t.Errorf("decision counts don't add up: %+v", res)
	}
	eff := res.Efficiency()
	if eff < -1 || eff > 1 {
		t.Errorf("efficiency %v outside [-1,1]", eff)
	}
}
