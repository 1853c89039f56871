package alphactl

import (
	"fmt"

	"videocdn/internal/core"
	"videocdn/internal/policy"
)

func init() {
	policy.Register(policy.Spec{
		Name:    "alphactl",
		Doc:     "Section 10's control loop steering an alpha-tunable policy's alpha_F2R toward a target ingress ratio (inner=<name>, inner.* forwarded)",
		Wrapper: true,
		Fields: []policy.Field{
			{Key: "inner", Kind: policy.KindString, Default: "cafe", Doc: "registered policy to steer; its alpha must be tunable (cafe, xlru)"},
			{Key: "alpha", Kind: policy.KindFloat, Default: 2.0, Doc: "starting alpha_F2R, forwarded to the inner policy"},
			{Key: "target_ingress", Kind: policy.KindFloat, Default: 0.1, Doc: "filled/requested byte ratio to steer toward, in (0,1)"},
			{Key: "min_alpha", Kind: policy.KindFloat, Default: 1.0, Doc: "lower bound of the control range"},
			{Key: "max_alpha", Kind: policy.KindFloat, Default: 4.0, Doc: "upper bound of the control range"},
			{Key: "window", Kind: policy.KindInt, Default: 3600, Doc: "seconds between adjustments"},
			{Key: "gain", Kind: policy.KindFloat, Default: 0.5, Doc: "log-alpha correction per window"},
		},
		New: func(cfg core.Config, p policy.Params) (core.Cache, error) {
			inner, err := policy.NewInner(cfg, p)
			if err != nil {
				return nil, err
			}
			t, ok := inner.(Tunable)
			if !ok {
				return nil, fmt.Errorf("inner policy %q has no tunable alpha", p["inner"])
			}
			return New(t, Config{
				TargetIngress: p["target_ingress"].(float64),
				MinAlpha:      p["min_alpha"].(float64),
				MaxAlpha:      p["max_alpha"].(float64),
				WindowSeconds: int64(p["window"].(int)),
				Gain:          p["gain"].(float64),
			})
		},
	})
}
