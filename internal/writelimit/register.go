package writelimit

import (
	"fmt"

	"videocdn/internal/core"
	"videocdn/internal/policy"
)

func init() {
	policy.Register(policy.Spec{
		Name:    "writelimit",
		Doc:     "Section 2's disk-write budget: a hard cap on chunk fills per window over a gateable policy (inner=<name>, inner.* forwarded)",
		Wrapper: true,
		Fields: []policy.Field{
			{Key: "inner", Kind: policy.KindString, Default: "cafe", Doc: "registered policy to cap; it must take a fill gate (cafe, xlru)"},
			{Key: "alpha", Kind: policy.KindFloat, Default: 2.0, Doc: "alpha_F2R forwarded to the inner policy when its schema accepts it"},
			{Key: "per_window", Kind: policy.KindInt, Default: 1024, Doc: "chunk writes allowed per window"},
			{Key: "window", Kind: policy.KindInt, Default: 3600, Doc: "window length in seconds"},
		},
		New: func(cfg core.Config, p policy.Params) (core.Cache, error) {
			inner, err := policy.NewInner(cfg, p)
			if err != nil {
				return nil, err
			}
			g, ok := inner.(Gateable)
			if !ok {
				return nil, fmt.Errorf("inner policy %q takes no fill gate", p["inner"])
			}
			return Limit(g, p["per_window"].(int), int64(p["window"].(int)))
		},
	})
}
