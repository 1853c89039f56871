package admission

import (
	"videocdn/internal/core"
	"videocdn/internal/policy"
)

func init() {
	policy.Register(policy.Spec{
		Name:    "admit",
		Doc:     "size/frequency admission filter composed over any registered policy (inner=<name>, inner.* forwarded)",
		Wrapper: true,
		Fields: []policy.Field{
			{Key: "inner", Kind: policy.KindString, Default: "lru", Doc: "registered policy to wrap"},
			{Key: "alpha", Kind: policy.KindFloat, Default: 2.0, Doc: "alpha_F2R forwarded to the inner policy when its schema accepts it"},
			{Key: "min_hits", Kind: policy.KindInt, Default: DefaultMinHits, Doc: "prior requests required per bypass-unit of fill size"},
			{Key: "small_chunks", Kind: policy.KindInt, Default: DefaultSmallChunks, Doc: "fills of at most this many chunks bypass the gate"},
			{Key: "halve_every", Kind: policy.KindInt, Default: DefaultHalveEvery, Doc: "halve frequency counts every N requests (negative disables)"},
		},
		New: func(cfg core.Config, p policy.Params) (core.Cache, error) {
			inner, err := policy.NewInner(cfg, p)
			if err != nil {
				return nil, err
			}
			return Wrap(inner, cfg, Config{
				MinHits:     p["min_hits"].(int),
				SmallChunks: p["small_chunks"].(int),
				HalveEvery:  p["halve_every"].(int),
			})
		},
	})
}
