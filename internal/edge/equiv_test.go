package edge

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"videocdn/internal/cafe"
	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/resilience"
	"videocdn/internal/store"
)

// equivRig holds two identically-configured servers over one origin.
// Driving both with the same request sequence keeps their caches,
// stores and ledgers in lockstep, so a scenario can run through
// handleVideo on twin A and through StreamRange on twin B and any
// divergence between the two serve entrypoints becomes a visible diff.
type equivRig struct {
	fault  *FaultOrigin
	a, b   *Server
	sa, sb store.Store
	now    atomic.Int64
}

func newEquivRig(t *testing.T, catalog Catalog) *equivRig {
	t.Helper()
	o, err := NewOrigin(catalog, testK)
	if err != nil {
		t.Fatal(err)
	}
	rig := &equivRig{fault: NewFaultOrigin(o, FaultConfig{})}
	originSrv := httptest.NewServer(rig.fault)
	t.Cleanup(originSrv.Close)

	build := func(st store.Store) *Server {
		// Disk sized to exactly video 1: once it is resident there is
		// no free space, so a cold video faces the real eviction-cost
		// comparison (and loses, giving the redirect scenario) instead
		// of cafe's admit-while-warming-up shortcut.
		c, err := cafe.New(core.Config{ChunkSize: testK, DiskChunks: 9}, 2, cafe.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewServer(Config{
			CacheFactory: Prebuilt(c),
			Store:        st,
			OriginURL:    originSrv.URL,
			RedirectURL:  "http://secondary.example",
			ChunkSize:    testK,
			Alpha:        2,
			Retry:        resilience.RetryPolicy{MaxAttempts: 1},
			Breaker:      resilience.BreakerConfig{MinSamples: 1 << 30},
			Clock:        rig.now.Load,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	rig.sa, rig.sb = store.NewMem(), store.NewMem()
	rig.a, rig.b = build(rig.sa), build(rig.sb)
	return rig
}

// both sends the same request to both twins and asserts they answer
// identically (status, Location, body), returning twin A's recorder.
func (r *equivRig) both(t *testing.T, target string) *httptest.ResponseRecorder {
	t.Helper()
	ra, rb := httptest.NewRecorder(), httptest.NewRecorder()
	r.a.ServeHTTP(ra, httptest.NewRequest(http.MethodGet, target, nil))
	r.b.ServeHTTP(rb, httptest.NewRequest(http.MethodGet, target, nil))
	if ra.Code != rb.Code || ra.Header().Get("Location") != rb.Header().Get("Location") ||
		!bytes.Equal(ra.Body.Bytes(), rb.Body.Bytes()) {
		t.Fatalf("twins diverged on %s: %d vs %d", target, ra.Code, rb.Code)
	}
	return ra
}

// ledgerDelta is the Eq. 2 view of a stats change.
type ledgerDelta struct {
	served, requested, filled, redirected int64
	redirects, degraded, fillErrs, heals  int64
}

func deltaOf(before, after Stats) ledgerDelta {
	return ledgerDelta{
		served:     after.Served - before.Served,
		requested:  after.RequestedBytes - before.RequestedBytes,
		filled:     after.FilledBytes - before.FilledBytes,
		redirected: after.RedirectedBytes - before.RedirectedBytes,
		redirects:  after.Redirected - before.Redirected,
		degraded:   after.DegradedRedirects - before.DegradedRedirects,
		fillErrs:   after.FillErrors - before.FillErrors,
		heals:      after.SelfHeals - before.SelfHeals,
	}
}

// TestStreamRangeHandleVideoEquivalence pins the two serve entrypoints
// to each other across the hit, fill (self-heal), redirect and degrade
// paths: same bytes out, and the same Eq. 2 ingress ledger. The
// documented split stands throughout — StreamRange is the byte-moving
// half, so egress (Requested) and redirect accounting belong to the
// decision engine that handleVideo runs and StreamRange's caller must.
func TestStreamRangeHandleVideoEquivalence(t *testing.T) {
	const v1, v2 = chunk.VideoID(1), chunk.VideoID(2)
	size1 := int64(8*testK + 123)
	rig := newEquivRig(t, MapCatalog{v1: size1, v2: 6 * testK})

	// Warm both twins until the policy admits video 1 end to end.
	warm := fmt.Sprintf("/video?v=%d", v1)
	for tries := 0; ; tries++ {
		if tries == 50 {
			t.Fatal("video 1 never admitted after 50 rounds")
		}
		rig.now.Add(1)
		if rig.both(t, warm).Code == http.StatusOK {
			break
		}
	}
	if a, b := rig.a.SnapshotStats(), rig.b.SnapshotStats(); !reflect.DeepEqual(a, b) {
		t.Fatalf("twins diverged during warmup:\n%+v\n%+v", a, b)
	}

	streamB := func(b0, b1 int64) ([]byte, error) {
		var buf bytes.Buffer
		err := rig.b.StreamRange(context.Background(), &buf, v1, b0, b1)
		return buf.Bytes(), err
	}
	snap := func() (Stats, Stats) { return rig.a.SnapshotStats(), rig.b.SnapshotStats() }

	t.Run("hit", func(t *testing.T) {
		b0, b1 := int64(700), int64(5*testK+99)
		beforeA, beforeB := snap()
		ra := rig.both(t, fmt.Sprintf("/video?v=%d&start=%d&end=%d", v1, b0, b1))
		if ra.Code != http.StatusPartialContent {
			t.Fatalf("hit served %d, want 206", ra.Code)
		}
		got, err := streamB(b0, b1)
		if err != nil {
			t.Fatal(err)
		}
		want := expected(v1, b0, b1)
		if !bytes.Equal(ra.Body.Bytes(), want) || !bytes.Equal(got, want) {
			t.Fatal("hit bytes diverge between handleVideo, StreamRange and the content function")
		}
		afterA, afterB := snap()
		dA, dB := deltaOf(beforeA, afterA), deltaOf(beforeB, afterB)
		// A ran its request twice (once via both, counted on A and B);
		// strip the lockstep copy so dA describes one handleVideo call.
		if dA.filled != 0 || dB.filled != dA.filled || dA.redirects != 0 || dB.redirects != 0 || dB.heals != 0 {
			t.Fatalf("hit charged ingress: handleVideo %+v vs StreamRange %+v", dA, dB)
		}
		if dA.served != 1 || dA.requested != b1-b0+1 {
			t.Fatalf("handleVideo egress accounting off: %+v", dA)
		}
		if dB.served != 1 || dB.requested != b1-b0+1 {
			// B served the lockstep HTTP copy; StreamRange itself must
			// add nothing — egress is the decision engine's job.
			t.Fatalf("StreamRange charged egress on a hit: %+v", dB)
		}
	})

	t.Run("fill", func(t *testing.T) {
		// A chunk the caches claim but both stores lost: handleVideo
		// heals it in its preflight, StreamRange heals it mid-stream,
		// and both must charge the identical ingress.
		lost := chunk.ID{Video: v1, Index: 2}
		if err := rig.sa.Delete(lost); err != nil {
			t.Fatal(err)
		}
		if err := rig.sb.Delete(lost); err != nil {
			t.Fatal(err)
		}
		b0, b1 := int64(2*testK), int64(3*testK-1)
		beforeA, _ := snap()
		ra := httptest.NewRecorder()
		rig.a.ServeHTTP(ra, httptest.NewRequest(http.MethodGet,
			fmt.Sprintf("/video?v=%d&start=%d&end=%d", v1, b0, b1), nil))
		if ra.Code != http.StatusPartialContent {
			t.Fatalf("heal-serve answered %d, want 206", ra.Code)
		}
		_, beforeB := snap()
		got, err := streamB(b0, b1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ra.Body.Bytes(), got) || !bytes.Equal(got, expected(v1, b0, b1)) {
			t.Fatal("healed bytes diverge between the two entrypoints")
		}
		afterA, afterB := snap()
		dA, dB := deltaOf(beforeA, afterA), deltaOf(beforeB, afterB)
		if dA.filled != testK || dB.filled != dA.filled || dA.heals != 1 || dB.heals != dA.heals {
			t.Fatalf("self-heal ledgers diverge: handleVideo %+v vs StreamRange %+v", dA, dB)
		}
		if dA.fillErrs != 0 || dB.fillErrs != 0 || dA.redirects != 0 || dB.redirects != 0 {
			t.Fatalf("healthy heal charged failure counters: %+v vs %+v", dA, dB)
		}
	})

	t.Run("redirect", func(t *testing.T) {
		// A cold video the policy bounces: both twins must produce the
		// identical 302 and ledger charge (asserted inside both), and
		// StreamRange must not be a back door around that decision —
		// an unadmitted chunk fails to stream and leaves no orphan
		// bytes in the store.
		beforeA, beforeB := snap()
		target := fmt.Sprintf("/video?v=%d", v2)
		ra := rig.both(t, target)
		if ra.Code != http.StatusFound {
			t.Fatalf("cold video answered %d, want 302", ra.Code)
		}
		if loc := ra.Header().Get("Location"); loc != "http://secondary.example"+target {
			t.Fatalf("redirect location %q", loc)
		}
		afterA, afterB := snap()
		dA, dB := deltaOf(beforeA, afterA), deltaOf(beforeB, afterB)
		if dA != dB {
			t.Fatalf("redirect ledgers diverge: %+v vs %+v", dA, dB)
		}
		if dA.redirects != 1 || dA.requested != 6*testK || dA.redirected != 6*testK || dA.filled != 0 {
			t.Fatalf("redirect ledger off: %+v", dA)
		}
		var buf bytes.Buffer
		if err := rig.b.StreamRange(context.Background(), &buf, v2, 0, testK-1); err == nil {
			t.Fatal("StreamRange streamed a chunk the cache never admitted")
		}
		if rig.sb.Has(chunk.ID{Video: v2, Index: 0}) {
			t.Fatal("failed StreamRange left orphan bytes in the store")
		}
	})

	t.Run("degrade", func(t *testing.T) {
		// Origin down, a claimed chunk lost from both stores: the fetch
		// fails on both paths with zero ingress charged. handleVideo
		// converts that into a degraded redirect (and rolls the claim
		// back); StreamRange surfaces the error to its caller, whose
		// decision engine owns the fallback.
		rig.fault.SetConfig(FaultConfig{ErrorRate: 1})
		lost := chunk.ID{Video: v1, Index: 0}
		if err := rig.sa.Delete(lost); err != nil {
			t.Fatal(err)
		}
		if err := rig.sb.Delete(lost); err != nil {
			t.Fatal(err)
		}
		beforeA, beforeB := snap()
		ra := httptest.NewRecorder()
		rig.a.ServeHTTP(ra, httptest.NewRequest(http.MethodGet,
			fmt.Sprintf("/video?v=%d&start=0&end=%d", v1, testK-1), nil))
		if ra.Code != http.StatusFound {
			t.Fatalf("degraded request answered %d, want 302", ra.Code)
		}
		if _, err := streamB(0, testK-1); err == nil {
			t.Fatal("StreamRange served a lost chunk with the origin down")
		}
		afterA, afterB := snap()
		dA, dB := deltaOf(beforeA, afterA), deltaOf(beforeB, afterB)
		if dA.filled != 0 || dB.filled != 0 {
			t.Fatalf("failed fetch charged ingress: %+v vs %+v", dA, dB)
		}
		if dA.fillErrs != 1 || dB.fillErrs != 1 {
			t.Fatalf("fetch failure counts diverge: %+v vs %+v", dA, dB)
		}
		if dA.degraded != 1 || dA.redirected != testK || dA.requested != testK {
			t.Fatalf("degrade ledger off: %+v", dA)
		}
		if dB.degraded != 0 || dB.redirected != 0 {
			t.Fatalf("StreamRange charged degrade counters itself: %+v", dB)
		}

		// Health restored, both twins recover the lost chunk — A needs
		// re-admission first (the degrade rolled its claim back), B
		// still claims it and self-heals through StreamRange.
		rig.fault.SetConfig(FaultConfig{})
		want := expected(v1, 0, testK-1)
		for tries := 0; ; tries++ {
			if tries == 50 {
				t.Fatal("twin A never re-admitted the rolled-back chunk")
			}
			rig.now.Add(1)
			rr := httptest.NewRecorder()
			rig.a.ServeHTTP(rr, httptest.NewRequest(http.MethodGet,
				fmt.Sprintf("/video?v=%d&start=0&end=%d", v1, testK-1), nil))
			if rr.Code == http.StatusPartialContent {
				if !bytes.Equal(rr.Body.Bytes(), want) {
					t.Fatal("recovered bytes diverge on twin A")
				}
				break
			}
		}
		preB := rig.b.SnapshotStats()
		got, err := streamB(0, testK-1)
		if err != nil {
			t.Fatalf("StreamRange did not recover after origin healed: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("recovered bytes diverge on twin B")
		}
		dRec := deltaOf(preB, rig.b.SnapshotStats())
		if dRec.filled != testK || dRec.heals != 1 {
			t.Fatalf("StreamRange recovery ledger off: %+v", dRec)
		}
	})
}
