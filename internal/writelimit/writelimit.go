// Package writelimit models the disk-write constraint of Section 2:
// cache-fill writes compete with cache-hit reads ("for every extra
// write-block operation we lose 1.2-1.3 reads"), so disk-constrained
// servers cap their fill volume per unit time.
//
// Budget is a windowed chunk-write allowance, and Limit installs one as
// a cache's fill gate — the registered "writelimit" policy:
//
//	writelimit:inner=cafe,per_window=500,window=3600 // 500 chunk writes/hour
//
// A request whose fill the budget refuses is redirected instead — the
// exact ingress-vs-redirect trade the paper's alpha knob expresses,
// but enforced as a hard operational cap.
package writelimit

import (
	"fmt"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
)

// ReadCostPerWrite is the paper's measured read loss per extra write
// block (Section 2 reports 1.2-1.3; we use the midpoint). Evaluation
// code uses it to convert fill volume into forgone read capacity.
const ReadCostPerWrite = 1.25

// Budget is a fixed-window chunk-write allowance. Not safe for
// concurrent use (wrap externally if the cache is shared).
type Budget struct {
	perWindow int
	window    int64

	windowStart int64
	started     bool
	used        int
	denied      int64
	granted     int64
}

// NewBudget allows perWindow chunk writes per windowSeconds.
func NewBudget(perWindow int, windowSeconds int64) (*Budget, error) {
	if perWindow <= 0 {
		return nil, fmt.Errorf("writelimit: perWindow must be positive, got %d", perWindow)
	}
	if windowSeconds <= 0 {
		return nil, fmt.Errorf("writelimit: window must be positive, got %d", windowSeconds)
	}
	return &Budget{perWindow: perWindow, window: windowSeconds}, nil
}

// Allow reports whether writing chunks more chunks at time now fits the
// current window's budget, consuming it if so. It has the signature the
// caches' SetFillGate expects.
//
// A single fill larger than the whole window budget is always denied;
// otherwise a fill is granted iff it fits entirely (no partial fills —
// a request is served in full or redirected in full, Section 4).
func (b *Budget) Allow(chunks int, now int64) bool {
	if !b.started {
		b.windowStart = now
		b.started = true
	}
	for now >= b.windowStart+b.window {
		b.windowStart += b.window
		b.used = 0
	}
	if chunks > b.perWindow-b.used {
		b.denied++
		return false
	}
	b.used += chunks
	b.granted++
	return true
}

// Stats returns how many fills were granted and denied.
func (b *Budget) Stats() (granted, denied int64) { return b.granted, b.denied }

// Remaining returns the unused allowance in the current window.
func (b *Budget) Remaining() int { return b.perWindow - b.used }

// Gateable is a cache whose fills can be throttled; *cafe.Cache and
// *xlru.Cache implement it.
type Gateable interface {
	core.Cache
	SetFillGate(gate func(chunks int, now int64) bool)
}

// Limited is a cache whose fills a Budget caps. It implements
// core.Cache.
type Limited struct {
	core.Cache
	budget *Budget
}

// Limit caps inner's fills at perWindow chunk writes per windowSeconds
// by installing a Budget as its fill gate.
func Limit(inner Gateable, perWindow int, windowSeconds int64) (*Limited, error) {
	b, err := NewBudget(perWindow, windowSeconds)
	if err != nil {
		return nil, err
	}
	inner.SetFillGate(b.Allow)
	return &Limited{Cache: inner, budget: b}, nil
}

// Name implements core.Cache.
func (l *Limited) Name() string { return l.Cache.Name() + "+writelimit" }

// Denied returns how many fills the budget refused.
func (l *Limited) Denied() int64 {
	_, denied := l.budget.Stats()
	return denied
}

// Forget forwards fill-failure rollback to the wrapped cache.
func (l *Limited) Forget(id chunk.ID) {
	if f, ok := l.Cache.(interface{ Forget(chunk.ID) }); ok {
		f.Forget(id)
	}
}
