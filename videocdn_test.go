package videocdn_test

import (
	"testing"

	videocdn "videocdn"
)

const mb = int64(1 << 20)

func smallTrace(t *testing.T) []videocdn.Request {
	t.Helper()
	p, err := videocdn.WorkloadProfileByName("europe")
	if err != nil {
		t.Fatal(err)
	}
	p.RequestsPerDay = 500
	p.CatalogSize = 100
	p.NewVideosPerDay = 5
	reqs, err := videocdn.GenerateWorkload(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestFacadeConstructors(t *testing.T) {
	reqs := smallTrace(t)
	opt := videocdn.CacheOptions{DiskBytes: 512 * mb, Alpha: 2}
	ctors := map[string]videocdn.CacheOptions{
		"xlru":    opt,
		"cafe":    opt,
		"psychic": {DiskBytes: 512 * mb, Alpha: 2, Future: reqs},
		"lru":     opt,
	}
	for name, opt := range ctors {
		t.Run(name, func(t *testing.T) {
			c, err := videocdn.NewCache(name, opt)
			if err != nil {
				t.Fatal(err)
			}
			if c.Name() != name {
				t.Errorf("Name = %q, want %q", c.Name(), name)
			}
			res, err := videocdn.Replay(c, videocdn.SliceTrace(reqs), 2, videocdn.ReplayOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Requests != len(reqs) {
				t.Errorf("replayed %d, want %d", res.Requests, len(reqs))
			}
			if e := res.Efficiency(); e < -1 || e > 1 {
				t.Errorf("efficiency %v outside [-1,1]", e)
			}
		})
	}
	for spec, opt := range map[string]videocdn.CacheOptions{
		"nosuch":      opt,
		"cafe:nope=1": opt,
		"psychic":     opt, // offline, but no future trace
	} {
		if _, err := videocdn.NewCache(spec, opt); err == nil {
			t.Errorf("NewCache(%q, %+v) succeeded", spec, opt)
		}
	}
}

func TestFacadeCostModel(t *testing.T) {
	m, err := videocdn.NewCostModel(2)
	if err != nil {
		t.Fatal(err)
	}
	if m.CF <= m.CR {
		t.Error("alpha=2 should make fills costlier than redirects")
	}
	if _, err := videocdn.NewCostModel(0); err == nil {
		t.Error("alpha=0 should fail")
	}
}

func TestFacadeReplayRejectsBadAlpha(t *testing.T) {
	c, err := videocdn.NewCache("xlru", videocdn.CacheOptions{DiskBytes: 512 * mb, Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := videocdn.Replay(c, videocdn.SliceTrace(smallTrace(t)), -1, videocdn.ReplayOptions{}); err == nil {
		t.Error("negative alpha should fail")
	}
}

// TestWorkloadProfilesExposed: the six world-region profiles are
// reachable by name, and an unknown name is refused.
func TestWorkloadProfilesExposed(t *testing.T) {
	for _, name := range []string{"africa", "asia", "australia", "europe", "northamerica", "southamerica"} {
		if p, err := videocdn.WorkloadProfileByName(name); err != nil || p.Name != name {
			t.Errorf("WorkloadProfileByName(%q) = %q, %v", name, p.Name, err)
		}
	}
	if _, err := videocdn.WorkloadProfileByName("nowhere"); err == nil {
		t.Error("unknown profile should fail")
	}
}
