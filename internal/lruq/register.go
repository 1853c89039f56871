package lruq

import (
	"fmt"

	"videocdn/internal/core"
	"videocdn/internal/policy"
)

// MaxQ bounds the level count: each level is an allocated list head,
// and beyond a few thousand levels LRU(q) is indistinguishable from
// q→∞ anyway.
const MaxQ = 1 << 16

func init() {
	policy.Register(policy.Spec{
		Name: "lruq",
		Doc:  "generalized LRU(q): q stacked recency levels interpolating LRU (q=1) toward LFU (q→∞)",
		Fields: []policy.Field{
			{Key: "q", Kind: policy.KindInt, Default: DefaultQ, Doc: "recency level count (1 = plain LRU)", Check: func(v any) error {
				if q := v.(int); q < 1 || q > MaxQ {
					return fmt.Errorf("q must be in [1, %d], got %d", MaxQ, q)
				}
				return nil
			}},
		},
		New: func(cfg core.Config, p policy.Params) (core.Cache, error) {
			return New(cfg, p["q"].(int))
		},
	})
	policy.Register(policy.Spec{
		Name: "lru",
		Doc:  "always-fill chunk-level LRU, the proxy-style strawman baseline (Section 2): LRU(q) with q = 1",
		New: func(cfg core.Config, _ policy.Params) (core.Cache, error) {
			c, err := New(cfg, 1)
			if err != nil {
				return nil, err
			}
			c.name = "lru"
			return c, nil
		},
	})
}
