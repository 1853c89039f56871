// Package alphactl implements the small-range dynamic adjustment of
// alpha_F2R that Section 10 of the paper contemplates: "dynamic
// adjustment of alpha_F2R, although not recommended in a wide range
// due to the resultant cache pollution and cache churn, can be
// considered in a small range through a control loop for better
// responsiveness to dynamics."
//
// The controller tracks a target ingress ratio (the operational
// quantity an uplink budget is stated in). Each accounting window it
// compares the measured ingress-to-requested ratio against the target
// and nudges alpha multiplicatively — more alpha when ingressing too
// much, less when there is slack — clamped to a configured small
// range. Multiplicative-increase on a log scale keeps the step size
// proportional and symmetric.
package alphactl

import (
	"errors"
	"fmt"
	"math"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/cost"
	"videocdn/internal/trace"
)

// Tunable is a cache whose alpha_F2R can be adjusted at runtime; both
// *xlru.Cache and *cafe.Cache implement it.
type Tunable interface {
	core.Cache
	Alpha() float64
	SetAlpha(alpha float64) error
}

// Config tunes the controller.
type Config struct {
	// TargetIngress is the desired filled/requested byte ratio.
	TargetIngress float64
	// MinAlpha and MaxAlpha bound the adjustment range (the paper's
	// "small range"). Defaults: [1, 4].
	MinAlpha, MaxAlpha float64
	// WindowSeconds is the accounting window between adjustments.
	// Defaults to 3600 (hourly).
	WindowSeconds int64
	// Gain scales the correction per window on the log-alpha scale.
	// Defaults to 0.5; larger reacts faster but oscillates more.
	Gain float64
}

// Validate reports configuration errors, applying defaults first via
// withDefaults.
func (c Config) validate() error {
	if c.TargetIngress <= 0 || c.TargetIngress >= 1 {
		return fmt.Errorf("alphactl: target ingress must be in (0,1), got %v", c.TargetIngress)
	}
	if c.MinAlpha <= 0 || c.MaxAlpha < c.MinAlpha {
		return fmt.Errorf("alphactl: invalid alpha range [%v,%v]", c.MinAlpha, c.MaxAlpha)
	}
	if c.WindowSeconds <= 0 {
		return errors.New("alphactl: window must be positive")
	}
	if c.Gain <= 0 {
		return errors.New("alphactl: gain must be positive")
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.MinAlpha == 0 {
		c.MinAlpha = 1
	}
	if c.MaxAlpha == 0 {
		c.MaxAlpha = 4
	}
	if c.WindowSeconds == 0 {
		c.WindowSeconds = 3600
	}
	if c.Gain == 0 {
		c.Gain = 0.5
	}
	return c
}

// Controller wraps a Tunable cache and adjusts its alpha each window.
// It implements core.Cache, so it drops into any replay or server that
// accepts one.
type Controller struct {
	cfg   Config
	cache Tunable

	windowStart int64
	started     bool
	window      cost.Counters
	adjusts     int
	alphaLog    []float64 // alpha after each adjustment (diagnostics)
}

// New wraps cache in an ingress-tracking alpha controller.
func New(cache Tunable, cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cache == nil {
		return nil, errors.New("alphactl: nil cache")
	}
	a := cache.Alpha()
	if a < cfg.MinAlpha || a > cfg.MaxAlpha {
		return nil, fmt.Errorf("alphactl: cache alpha %v outside control range [%v,%v]",
			a, cfg.MinAlpha, cfg.MaxAlpha)
	}
	return &Controller{cfg: cfg, cache: cache}, nil
}

// Name implements core.Cache.
func (c *Controller) Name() string { return c.cache.Name() + "+alphactl" }

// Len implements core.Cache.
func (c *Controller) Len() int { return c.cache.Len() }

// Contains implements core.Cache.
func (c *Controller) Contains(id chunk.ID) bool { return c.cache.Contains(id) }

// Forget forwards fill-failure rollback to the wrapped cache.
func (c *Controller) Forget(id chunk.ID) {
	if f, ok := c.cache.(interface{ Forget(chunk.ID) }); ok {
		f.Forget(id)
	}
}

// Alpha returns the wrapped cache's current alpha.
func (c *Controller) Alpha() float64 { return c.cache.Alpha() }

// Adjustments returns how many window boundaries have adjusted alpha,
// and the alpha values after each adjustment.
func (c *Controller) Adjustments() (int, []float64) { return c.adjusts, c.alphaLog }

// HandleRequest implements core.Cache: account the window, adjust at
// boundaries, delegate the decision.
func (c *Controller) HandleRequest(r trace.Request) core.Outcome {
	if !c.started {
		c.windowStart = r.Time
		c.started = true
	}
	for r.Time >= c.windowStart+c.cfg.WindowSeconds {
		c.adjust()
		c.windowStart += c.cfg.WindowSeconds
	}
	out := c.cache.HandleRequest(r)
	c.window.Requested += r.Bytes()
	switch out.Decision {
	case core.Serve:
		c.window.Filled += out.FilledBytes
	case core.Redirect:
		c.window.Redirected += r.Bytes()
	}
	return out
}

// adjust applies one control step from the finished window.
func (c *Controller) adjust() {
	defer func() { c.window = cost.Counters{} }()
	if c.window.Requested == 0 {
		return
	}
	measured := c.window.IngressRatio()
	target := c.cfg.TargetIngress
	// Error on the log scale: log(measured/target), clamped so one
	// empty-ish window cannot slam alpha to a bound.
	e := math.Log(math.Max(measured, 1e-4) / target)
	if e > 1 {
		e = 1
	}
	if e < -1 {
		e = -1
	}
	newAlpha := c.cache.Alpha() * math.Exp(c.cfg.Gain*e)
	if newAlpha < c.cfg.MinAlpha {
		newAlpha = c.cfg.MinAlpha
	}
	if newAlpha > c.cfg.MaxAlpha {
		newAlpha = c.cfg.MaxAlpha
	}
	if newAlpha != c.cache.Alpha() {
		if err := c.cache.SetAlpha(newAlpha); err == nil {
			c.adjusts++
			c.alphaLog = append(c.alphaLog, newAlpha)
		}
	}
}

var _ core.Cache = (*Controller)(nil)
