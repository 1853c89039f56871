package experiments

import (
	"strings"
	"testing"
)

func TestPrefetchExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	res, err := Prefetch(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Useful > row.Accepted {
			t.Errorf("alpha=%v: useful (%d) > accepted (%d)", row.Alpha, row.Useful, row.Accepted)
		}
		if row.PrefetchEff < -1 || row.PrefetchEff > 1 {
			t.Errorf("alpha=%v: efficiency %v out of range", row.Alpha, row.PrefetchEff)
		}
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "Proactive caching") {
		t.Error("Print output missing header")
	}
}

func TestBaselinesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	// The claims read from this run are TestPaperClaims' ext:baselines
	// row.
	res := get(t, tinyBaselines)
	for _, alpha := range res.Alphas {
		for _, algo := range baselineAlgos {
			if res.Results[alpha][algo] == nil {
				t.Fatalf("missing %v/%s", alpha, algo)
			}
		}
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "baselines") {
		t.Error("Print output missing header")
	}
}

func TestRoundingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test (LP)")
	}
	// The bracket's claims are TestPaperClaims' ext:rounding row.
	res := get(t, smallRounding)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "Bracketing") {
		t.Error("Print output missing header")
	}
}

func TestSensitivitySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	// The sweeps' claims are TestPaperClaims' ext:sensitivity row.
	res := get(t, tinySensitivity)
	if len(res.ChunkSizes) != 4 || len(res.Zipfs) != 4 {
		t.Fatalf("sweep sizes: %d chunks, %d zipfs", len(res.ChunkSizes), len(res.Zipfs))
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "Sensitivity") {
		t.Error("Print output missing header")
	}
}

func TestFlashSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	res := get(t, tinyFlash)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.ReqTotal == 0 {
			t.Fatalf("%s: no flash requests observed", row.Algo)
		}
		if row.Red10 > row.Req10 || row.RedTotal > row.ReqTotal {
			t.Errorf("%s: redirect counts exceed request counts", row.Algo)
		}
		// Every algorithm should admit the flash video eventually.
		if row.FirstServe < 0 {
			t.Errorf("%s: never served the flash video", row.Algo)
		}
	}
	// Psychic (offline) should admit no later than the online caches.
	var psychicFS float64
	for _, row := range res.Rows {
		if row.Algo == AlgoPsychic {
			psychicFS = row.FirstServe
		}
	}
	for _, row := range res.Rows {
		if row.Algo != AlgoPsychic && row.FirstServe >= 0 && psychicFS > row.FirstServe+1 {
			t.Errorf("psychic served at %.1f min, later than %s at %.1f",
				psychicFS, row.Algo, row.FirstServe)
		}
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "Flash crowd") {
		t.Error("Print output missing header")
	}
}

func TestConstrainedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	res := get(t, tinyConstrained)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Eff < -1 || row.Eff > 1 {
			t.Errorf("%s: efficiency %v out of range", row.Name, row.Eff)
		}
		if row.ReadLoss < 0 {
			t.Errorf("%s: negative read loss", row.Name)
		}
	}
	// The control loop's final alpha must sit in its configured range.
	ctl := res.Rows[2]
	if ctl.FinalAlpha < 1 || ctl.FinalAlpha > 4 {
		t.Errorf("controller alpha %v outside [1,4]", ctl.FinalAlpha)
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "Ingress control") {
		t.Error("Print output missing header")
	}
}

func TestCDNWideSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	res := get(t, tinyCDNWide)
	fan := res.FanIn
	if len(fan.Tiers) != 7 {
		t.Fatalf("tiers = %d, want 6 edges + parent", len(fan.Tiers))
	}
	var sum int64
	for _, b := range fan.AbsorbedBytes {
		sum += b
	}
	if sum+fan.OriginBytes != fan.TotalRequested {
		t.Error("conservation violated")
	}
	// The shared parent must reduce origin traffic vs edge-only.
	if fan.OriginShare() >= res.EdgeOnlyOrigin {
		t.Errorf("parent did not help: %.3f vs %.3f", fan.OriginShare(), res.EdgeOnlyOrigin)
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "CDN-wide") {
		t.Error("Print output missing header")
	}
}

func TestHierarchyExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	res := get(t, tinyHierarchy)
	c := res.Chain
	total := c.AbsorbedBytes[0] + c.AbsorbedBytes[1] + c.OriginBytes
	if total != c.TotalRequested {
		t.Errorf("conservation violated: %d != %d", total, c.TotalRequested)
	}
	// The two-tier defense should absorb a meaningful share.
	if c.OriginShare() > 0.95 {
		t.Errorf("origin share %.2f implausibly high", c.OriginShare())
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "Two-tier") {
		t.Error("Print output missing header")
	}
}
