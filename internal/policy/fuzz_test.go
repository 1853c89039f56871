package policy_test

// FuzzPolicyConfig pins the registry's headline robustness property:
// for ANY policy name and ANY "k=v,..." config string, construction
// returns a policy or an error — it never panics and never builds a
// half-configured cache. This is the exact surface the CLIs expose
// (-algo/-policy-config on cdnsim, cdnserver, checker), so a crash
// found here is a crash an operator could trigger from a flag.

import (
	"testing"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/policy"
	_ "videocdn/internal/policy/all"
	"videocdn/internal/trace"
)

func FuzzPolicyConfig(f *testing.F) {
	// One seed per builtin with a representative config, plus the
	// malformed shapes the parser and coercion must reject cleanly.
	f.Add("cafe", "gamma=0.5,window_scale=2,file_level=true")
	f.Add("xlru", "alpha=4")
	f.Add("lru", "")
	f.Add("lruk", "k=3")
	f.Add("lruq", "q=8")
	f.Add("gdsp", "")
	f.Add("admit", "inner=lruq,inner.q=2,min_hits=2")
	f.Add("belady", "")
	f.Add("psychic", "n=16,strict=true")
	f.Add("nosuch", "a=1")
	f.Add("cafe", "gamma=nope")
	f.Add("cafe", "=,==,a=")
	f.Add("lruq", "q=99999999999999999999")
	f.Add("admit", "inner=admit,inner.inner=admit")
	f.Add("admit", "inner=belady")
	f.Add("alphactl", "inner=xlru,target_ingress=0.2,window=60,gain=1")
	f.Add("alphactl", "inner=lru")
	f.Add("alphactl", "inner=cafe,alpha=8")
	f.Add("writelimit", "inner=cafe,per_window=1,window=1")
	f.Add("writelimit", "inner=gdsp")
	f.Add("writelimit", "inner=alphactl,inner.inner=xlru")

	// The exact stream fed to every constructed policy. Offline
	// policies index this as their future and panic (by contract) on
	// any divergence, so first contact replays precisely these.
	future := []trace.Request{
		{Time: 0, Video: 1, Start: 0, End: 1023},
		{Time: 1, Video: 1, Start: 0, End: 2047},
	}
	f.Fuzz(func(t *testing.T, name, config string) {
		p, err := policy.ParseParams(config)
		if err != nil {
			return
		}
		cfg := core.Config{ChunkSize: 1024, DiskChunks: 8}
		c, err := policy.NewWithEnv(name, cfg, policy.Env{
			Alpha:  2,
			Future: func() []trace.Request { return future },
		}, p)
		if (c == nil) == (err == nil) {
			t.Fatalf("NewWithEnv(%q, %q) = %v, %v: want exactly one of cache and error", name, config, c, err)
		}
		if err != nil {
			return
		}
		// A constructed policy must survive first contact: a couple of
		// requests and a rollback, without panicking or overflowing.
		for _, r := range future {
			c.HandleRequest(r)
		}
		if f, ok := c.(interface{ Forget(chunk.ID) }); ok {
			f.Forget(chunk.ID{Video: 1, Index: 0})
		}
		if c.Len() > cfg.DiskChunks {
			t.Fatalf("%q with %q: Len %d exceeds capacity %d", name, config, c.Len(), cfg.DiskChunks)
		}
	})
}
