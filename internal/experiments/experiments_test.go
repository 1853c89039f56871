package experiments

import (
	"strings"
	"testing"
)

// tinyScale keeps unit runs in the hundreds of milliseconds.
func tinyScale() Scale {
	sc := SmallScale()
	sc.Factor = 0.02
	sc.Days = 6
	sc.DiskChunks = 512
	sc.Fig2Files = 25
	sc.Fig2MaxReqs = 60
	return sc
}

func TestScaledProfile(t *testing.T) {
	sc := DefaultScale()
	p, err := ScaledProfile("europe", sc)
	if err != nil {
		t.Fatal(err)
	}
	if p.RequestsPerDay <= 0 || p.CatalogSize <= 0 {
		t.Errorf("scaled profile degenerate: %+v", p)
	}
	full, _ := ScaledProfile("europe", Scale{Factor: 1, Days: 1})
	if p.RequestsPerDay >= full.RequestsPerDay {
		t.Error("scaling should shrink volume")
	}
	if _, err := ScaledProfile("nowhere", sc); err == nil {
		t.Error("unknown server should fail")
	}
}

func TestTraceForDeterministic(t *testing.T) {
	sc := tinyScale()
	a, err := TraceFor("asia", sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TraceFor("asia", sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("trace generation must be deterministic")
	}
}

func TestNewCacheUnknown(t *testing.T) {
	sc := tinyScale()
	reqs, err := TraceFor("asia", sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runOne("bogus", coreConfig(sc), 1, reqs, simOptions()); err == nil {
		t.Error("unknown algorithm should fail")
	}
}

func TestFig3SmokeAndShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	res, err := Fig3(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range OnlineAlgos {
		if len(res.Series[algo]) == 0 {
			t.Errorf("%s: empty series", algo)
		}
		if res.Steady[algo] == nil {
			t.Fatalf("%s: missing steady result", algo)
		}
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "Figure 3") {
		t.Error("Print output missing header")
	}
	// Diurnal swing should be visible in the ingress series.
	if ratio := res.PeakTroughRatio(AlgoXLRU); ratio < 1.05 {
		t.Errorf("xlru ingress peak/trough = %.2f; diurnal pattern missing", ratio)
	}
}

func TestAlphaSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	// The claims read from these runs are TestPaperClaims' rows.
	res := get(t, smallSweep)
	var sb strings.Builder
	res.PrintFig4(&sb)
	res.PrintFig5(&sb)
	out := sb.String()
	if !strings.Contains(out, "Figure 4") || !strings.Contains(out, "Figure 5") {
		t.Error("Print output missing headers")
	}
}

func TestFig6Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	res := get(t, tinyFig6)
	if len(res.Disks) != 3 {
		t.Fatalf("disks = %v", res.Disks)
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "Figure 6") {
		t.Error("Print output missing header")
	}
}

func TestFig7Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	res := get(t, tinyFig7)
	if len(res.Servers) != 6 {
		t.Fatalf("servers = %v", res.Servers)
	}
	for _, s := range res.Servers {
		for _, algo := range OnlineAlgos {
			if res.Results[s][algo] == nil {
				t.Fatalf("missing result for %s/%s", s, algo)
			}
		}
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "Figure 7") {
		t.Error("Print output missing header")
	}
}

func TestFig2Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test (LP)")
	}
	res := get(t, tinyFig2)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "Figure 2") {
		t.Error("Print output missing header")
	}
}

func TestAblationsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	res, err := Ablations(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 8 {
		t.Fatalf("only %d ablation rows", len(res.Rows))
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "Ablations") {
		t.Error("Print output missing header")
	}
}
