package admission_test

import (
	"testing"

	"videocdn/internal/admission"
	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/policy"
	_ "videocdn/internal/policy/all"
	"videocdn/internal/trace"
)

const testK = 1024

func req(t int64, v chunk.VideoID, c0, c1 int) trace.Request {
	return trace.Request{Time: t, Video: v, Start: int64(c0) * testK, End: int64(c1+1)*testK - 1}
}

func testCfg(diskChunks int) core.Config {
	return core.Config{ChunkSize: testK, DiskChunks: diskChunks}
}

func wrap(t *testing.T, diskChunks int, opt admission.Config) *admission.Cache {
	t.Helper()
	inner, err := policy.New("lru", testCfg(diskChunks), nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := admission.Wrap(inner, testCfg(diskChunks), opt)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestWrapValidation(t *testing.T) {
	inner, _ := policy.New("lru", testCfg(8), nil)
	if _, err := admission.Wrap(nil, testCfg(8), admission.Config{}); err == nil {
		t.Error("nil inner should fail")
	}
	if _, err := admission.Wrap(inner, core.Config{}, admission.Config{}); err == nil {
		t.Error("bad core config should fail")
	}
	if _, err := admission.Wrap(inner, testCfg(8), admission.Config{MinHits: -1}); err == nil {
		t.Error("negative MinHits should fail")
	}
	if _, err := admission.Wrap(inner, testCfg(8), admission.Config{SmallChunks: -1}); err == nil {
		t.Error("negative SmallChunks should fail")
	}
}

func TestName(t *testing.T) {
	if got := wrap(t, 8, admission.Config{}).Name(); got != "admit(lru)" {
		t.Errorf("Name = %q, want admit(lru)", got)
	}
}

// TestSmallFillBypass: fills within the small-chunk budget need no
// evidence at all.
func TestSmallFillBypass(t *testing.T) {
	c := wrap(t, 8, admission.Config{SmallChunks: 2})
	out := c.HandleRequest(req(0, 1, 0, 1)) // 2 missing chunks, first sighting
	if out.Decision != core.Serve || out.FilledChunks != 2 {
		t.Errorf("small fill should be admitted: %+v", out)
	}
}

// TestColdLargeFillDeclined: a big never-seen fill is redirected and
// the inner policy stays untouched — its popularity state only ever
// sees admitted traffic.
func TestColdLargeFillDeclined(t *testing.T) {
	c := wrap(t, 16, admission.Config{MinHits: 2, SmallChunks: 1})
	out := c.HandleRequest(req(0, 1, 0, 3)) // 4 missing, requires 2*(4-1)=6 prior hits
	if out.Decision != core.Redirect {
		t.Errorf("cold large fill should redirect: %+v", out)
	}
	if c.Len() != 0 {
		t.Errorf("declined request leaked into inner: Len = %d", c.Len())
	}
	if c.Contains(chunk.ID{Video: 1, Index: 0}) {
		t.Error("declined chunk reported resident")
	}
}

// TestEvidenceAccumulates: repeated demand eventually clears the
// linear size-scaled bar, and the bar grows with the fill size.
func TestEvidenceAccumulates(t *testing.T) {
	c := wrap(t, 16, admission.Config{MinHits: 1, SmallChunks: 1, HalveEvery: -1})
	// 3 missing chunks => ceil(3/1)=3 units => 1*(3-1)=2 prior hits.
	tm := int64(0)
	for i := 0; i < 2; i++ {
		if out := c.HandleRequest(req(tm, 7, 0, 2)); out.Decision != core.Redirect {
			t.Fatalf("request %d should still be declined: %+v", i, out)
		}
		tm++
	}
	out := c.HandleRequest(req(tm, 7, 0, 2))
	if out.Decision != core.Serve || out.FilledChunks != 3 {
		t.Fatalf("third request should be admitted: %+v", out)
	}
}

// TestResidentRequestsPassThrough: once chunks are resident there is
// nothing to admit — requests flow to the inner policy (refreshing its
// recency) regardless of the evidence bar.
func TestResidentRequestsPassThrough(t *testing.T) {
	c := wrap(t, 16, admission.Config{MinHits: 5, SmallChunks: 4, HalveEvery: -1})
	if out := c.HandleRequest(req(0, 1, 0, 2)); out.Decision != core.Serve {
		t.Fatalf("bypass fill should be admitted: %+v", out)
	}
	out := c.HandleRequest(req(1, 1, 0, 2))
	if out.Decision != core.Serve || out.FilledChunks != 0 {
		t.Errorf("fully-resident request should serve without fill: %+v", out)
	}
}

// TestCountHalving: the doorkeeper decays, so a burst of old demand
// cannot admit forever.
func TestCountHalving(t *testing.T) {
	c := wrap(t, 16, admission.Config{MinHits: 1, SmallChunks: 1, HalveEvery: 4})
	// 4 requests for video 9 -> count 4, then the halve at request 4
	// brings it to 2.
	tm := int64(0)
	for i := 0; i < 4; i++ {
		c.HandleRequest(req(tm, 9, 0, 0))
		tm++
	}
	// 4 missing chunks requires 3 prior hits; decayed count is 2.
	if out := c.HandleRequest(req(tm, 9, 4, 7)); out.Decision != core.Redirect {
		t.Errorf("decayed count should no longer clear the bar: %+v", out)
	}
}

// TestForgetDelegates: rollback reaches the inner policy.
func TestForgetDelegates(t *testing.T) {
	c := wrap(t, 16, admission.Config{})
	c.HandleRequest(req(0, 1, 0, 0))
	id := chunk.ID{Video: 1, Index: 0}
	if !c.Contains(id) {
		t.Fatal("chunk should be resident")
	}
	c.Forget(id)
	if c.Contains(id) || c.Inner().Len() != 0 {
		t.Error("Forget did not reach the inner policy")
	}
}

// TestRegistryFactory covers the "admit" plugin: inner selection,
// inner.* pass-through, and the offline-inner rejection.
func TestRegistryFactory(t *testing.T) {
	cfg := testCfg(16)

	c, err := policy.New("admit", cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "admit(lru)" {
		t.Errorf("default inner: Name = %q, want admit(lru)", c.Name())
	}

	c, err = policy.New("admit", cfg, policy.Params{"inner": "lruq", "inner.q": 8})
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "admit(lruq)" {
		t.Errorf("inner=lruq: Name = %q", c.Name())
	}

	if _, err := policy.New("admit", cfg, policy.Params{"inner": "belady"}); err == nil {
		t.Error("wrapping an offline policy should fail")
	}
	if _, err := policy.New("admit", cfg, policy.Params{"inner": "nosuch"}); err == nil {
		t.Error("unknown inner should fail")
	}
	if _, err := policy.New("admit", cfg, policy.Params{"inner.q": "not-an-int"}); err == nil {
		t.Error("bad inner param should fail")
	}
}
