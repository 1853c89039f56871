// Package mutants is the table of standing mutants: deliberate defects
// in the videocdn module, each a one-fragment edit of one file that a
// named set of tests must catch. TestMutants (mutants_test.go) applies
// each entry through `go test -overlay`, so the tree is never edited,
// and requires the tests to fail; SURVIVORS gives a verdict for each
// entry that has survived its tests. It is a module of its own, so the
// root `go test ./...` never runs it: run `make mutants`.
//
// An entry's Old fragment must occur exactly once in its file, so a
// change that moves the code fails the run by the entry's name; mend
// the fragment with the code. A mutant that does not compile is a
// broken entry, not a kill.
package mutants

import "time"

// Mutant is one entry of the table.
type Mutant struct {
	Name     string   // unique, and the name SURVIVORS uses
	File     string   // slash-separated, relative to the repository root
	Old, New string   // Old occurs exactly once in File
	Packages []string // go test package patterns, relative to the root
	Run      string   // go test -run regex
	Race     bool     // run under the race detector
	// Timeout is the test binary's -timeout; 0 means DefaultTimeout. A
	// mutant that hangs is killed by it, so keep it short there.
	Timeout time.Duration
}

// DefaultTimeout is the -timeout of an entry that sets none.
const DefaultTimeout = 2 * time.Minute

// Table is every standing mutant, grouped by what it breaks.
var Table = []Mutant{
	// Cafe's cost rule (Eqs. 6-9) against the paper's figure claims.
	{
		Name:     "cafe-eq6-floor-counts-every-chunk",
		File:     "internal/cafe/cafe.go",
		Old:      "costServe := float64(len(missing)) * c.cf",
		New:      "costServe := float64(nChunks) * c.cf",
		Packages: []string{"./internal/experiments"},
		Run:      "^TestPaperClaims$/^Figs4-5$",
	},
	{
		Name:     "cafe-eq9-key-adds-iat",
		File:     "internal/cafe/cafe.go",
		Old:      "return g*float64(e.t) - (1-g)*e.dt",
		New:      "return g*float64(e.t) + (1-g)*e.dt",
		Packages: []string{"./internal/experiments"},
		Run:      "^TestPaperClaims$/^Figs4-5$",
	},
	{
		Name:     "cafe-ignores-window-scale",
		File:     "internal/cafe/cafe.go",
		Old:      "window := age * c.opt.WindowScale",
		New:      "window := age",
		Packages: []string{"./internal/experiments"},
		Run:      "^TestPaperClaims$/^ext:ablations$",
	},

	// Cafe's victim pops and the ordered set under them.
	{
		Name:     "cafe-victim-bound-without-delta",
		File:     "internal/cafe/cafe.go",
		Old:      "delta := 0x1p-48 * (c.opt.Gamma*m + age + 1)",
		New:      "delta := 0 * (c.opt.Gamma*m + age + 1)",
		Packages: []string{"./internal/cafe"},
		Run:      "^TestVictimBoundLeavesRoundingMargin$",
	},
	{
		Name: "cafe-restore-under-new-key",
		File: "internal/cafe/cafe.go",
		Old: "\t\tfor _, p := range c.popped {\n" +
			"\t\t\tc.insert(p.v, p.id, p.key)\n",
		New: "\t\tfor _, p := range c.popped {\n" +
			"\t\t\tc.insert(p.v, p.id, c.treeKey(iatEntry{dt: c.popularity(p.v, chunk.FromKey(p.id).Index).dt, t: now}))\n",
		Packages: []string{"./internal/cafe"},
	},
	{
		Name:     "ordtree-compares-high-word-only",
		File:     "internal/ordtree/ordtree.go",
		Old:      "_, borrow = bits.Sub64(a.hi, b.hi, borrow)",
		New:      "_, borrow = bits.Sub64(a.hi, b.hi, 0)",
		Packages: []string{"./internal/ordtree"},
	},

	// LRU against Che's approximation.
	{
		Name:     "lru-evicts-mru-end",
		File:     "internal/lru/lru.go",
		Old:      "\tn := l.tail\n\tl.unlink(n)\n\tdelete(l.byKey, n.key)\n\treturn n.key, true",
		New:      "\tn := l.head\n\tl.unlink(n)\n\tdelete(l.byKey, n.key)\n\treturn n.key, true",
		Packages: []string{"./internal/lruq"},
		Run:      "^TestLRUMatchesChe$",
	},
	{
		Name:     "lruq-hit-keeps-recency",
		File:     "internal/lruq/lruq.go",
		Old:      "\t\t\tc.promote(id.Key(), now)\n",
		New:      "",
		Packages: []string{"./internal/lruq"},
		Run:      "^TestLRUMatchesChe$",
	},

	// The extension figures' claim rows.
	{
		Name:     "writelimit-allows-everything",
		File:     "internal/writelimit/writelimit.go",
		Old:      "\tif chunks > b.perWindow-b.used {",
		New:      "\tif false {",
		Packages: []string{"./internal/experiments"},
		Run:      "^TestPaperClaims$/^ext:constrained$",
	},
	{
		Name:     "belady-evicts-nearest-next-use",
		File:     "internal/belady/belady.go",
		Old:      "ordtree.NewByID(ordtree.NewDescending())",
		New:      "ordtree.NewByID(ordtree.New())",
		Packages: []string{"./internal/experiments"},
		Run:      "^TestPaperClaims$/^ext:baselines$",
	},
	{
		Name:     "rounding-admits-at-0.95",
		File:     "internal/optimal/rounded.go",
		Old:      "admit := bound.A[t] >= 0.5 &&",
		New:      "admit := bound.A[t] >= 0.95 &&",
		Packages: []string{"./internal/experiments"},
		Run:      "^TestPaperClaims$/^ext:rounding$",
	},
	{
		Name:     "sensitivity-holds-disk-chunks",
		File:     "internal/experiments/sensitivity.go",
		Old:      "DiskChunks: int(diskBytes / k)",
		New:      "DiskChunks: int(diskBytes / sc.ChunkSize)",
		Packages: []string{"./internal/experiments"},
		Run:      "^TestPaperClaims$/^ext:sensitivity$",
	},
	{
		Name:     "prefetch-never-spends-budget",
		File:     "internal/prefetch/prefetch.go",
		Old:      "\t\t\tbudget--\n",
		New:      "",
		Packages: []string{"./internal/experiments"},
		Run:      "^TestPaperClaims$/^ext:prefetch$",
	},
	{
		Name:     "chain-hands-on-whole-stream",
		File:     "internal/hierarchy/hierarchy.go",
		Old:      "\t\tstream = next\n",
		New:      "\t\t_ = next\n",
		Packages: []string{"./internal/experiments"},
		Run:      "^TestPaperClaims$/^ext:hierarchy$",
	},
	{
		Name:     "cafe-reads-ahead-two",
		File:     "internal/cafe/prefetch.go",
		Old:      "Index: uint32(hi + 1)}",
		New:      "Index: uint32(hi + 2)}",
		Packages: []string{"./internal/oracle", "./internal/experiments"},
		Run:      "^(TestCheckMatrix|TestPrefetchFigureDigest)$",
	},

	// The chunk store's own contracts.
	{
		Name:     "tiered-delete-keeps-hot-copy",
		File:     "internal/store/tiered.go",
		Old:      "\tst.epoch++\n\tst.removeLocked(key)\n\tst.mu.Unlock()\n\treturn t.cold.Delete(id)",
		New:      "\tst.epoch++\n\tst.mu.Unlock()\n\treturn t.cold.Delete(id)",
		Packages: []string{"./internal/store"},
		Run:      "^TestTiered",
	},
	{
		Name:     "slab-frees-pinned-slot",
		File:     "internal/store/slab.go",
		Old:      "if seg.pins != nil && seg.pins[loc.slot].Load() > 0 {",
		New:      "if false && seg.pins != nil && seg.pins[loc.slot].Load() > 0 {",
		Packages: []string{"./internal/store"},
	},

	// The edge's reconciliation of cache and store (ROADMAP item 15).
	{
		Name:     "edge-preflight-trusts-cache",
		File:     "internal/edge/server.go",
		Old:      "if s.cfg.Store.Has(id) {\n\t\t\tcontinue",
		New:      "if true || s.cfg.Store.Has(id) {\n\t\t\tcontinue",
		Packages: []string{"./internal/edge", "./internal/oracle"},
		Run:      "^(TestChaosOnlyGoodStatusesAndAccounting|TestCheckMatrix)$",
	},
	{
		Name:     "edge-undo-admission-noop",
		File:     "internal/edge/server.go",
		Old:      "func (s *Server) undoAdmission(ids []chunk.ID) {\n\tif len(ids) == 0 {",
		New:      "func (s *Server) undoAdmission(ids []chunk.ID) {\n\tif true {",
		Packages: []string{"./internal/edge"},
		Run:      "^TestChaosDegradeRollsBackAdmission$",
	},
	{
		Name:     "edge-orphan-sweep-skipped",
		File:     "internal/edge/server.go",
		Old:      "\tif f.err == nil {\n\t\t// An admission may have been rolled back",
		New:      "\tif false {\n\t\t// An admission may have been rolled back",
		Packages: []string{"./internal/edge"},
		Run:      "^TestChaosFlightCancellationDoesNotPoisonWaiters$",
		Race:     true,
	},
	{
		Name:     "edge-stream-never-heals",
		File:     "internal/edge/server.go",
		Old:      "if err2 := s.heal(fc, id); err2 != nil {",
		New:      "if err2 := err; err2 != nil {",
		Packages: []string{"./internal/edge"},
		Run:      "^TestStreamRangeHandleVideoEquivalence$",
	},

	{
		Name:     "edge-heal-trusts-its-fill",
		File:     "internal/edge/server.go",
		Old:      "if s.cfg.Store.Has(id) {\n\t\t\ts.selfHeals.Add(1)",
		New:      "if true || s.cfg.Store.Has(id) {\n\t\t\ts.selfHeals.Add(1)",
		Packages: []string{"./internal/edge"},
		Run:      "^TestChaosHealThatLosesItsChunkDegrades$",
	},
	{
		// Survives: see SURVIVORS. Every edge-facing package runs in full.
		Name:     "edge-heal-one-attempt",
		File:     "internal/edge/server.go",
		Old:      "for attempt := 0; attempt < 3; attempt++ {",
		New:      "for attempt := 0; attempt < 1; attempt++ {",
		Packages: []string{"./internal/edge", "./internal/oracle", "./internal/cluster", "./cmd/cdnserver", "."},
	},

	// The edge's fill and peer paths.
	{
		Name:     "edge-cut-run-kept",
		File:     "internal/edge/server.go",
		Old:      "\t\t\ts.deleteChunks(run[:n/k]) // only whole chunks precede a failure\n",
		New:      "",
		Packages: []string{"./internal/edge"},
		Run:      "^TestChaosCutRunRolledBackAfterClientLeft$",
	},
	{
		Name:     "peer-hop-guard-at-100",
		File:     "internal/edge/peer.go",
		Old:      "err != nil || n > 1 {",
		New:      "err != nil || n > 100 {",
		Packages: []string{"./internal/edge"},
		Run:      "^TestPeerChunkHopGuard$",
	},
	{
		Name: "peer-fill-ignores-deadline",
		File: "internal/edge/peer.go",
		Old: "\t\tif ctx.Err() != nil {\n" +
			"\t\t\t// The fill deadline died during the peer attempt; starting\n" +
			"\t\t\t// an origin round trip now would fail the same way.\n" +
			"\t\t\treturn true, ctx.Err()\n" +
			"\t\t}\n",
		New:      "",
		Packages: []string{"./internal/edge"},
		Run:      "^TestPeerFillExpiredDeadline$",
	},

	// Two that hang instead of failing: each must end as a timeout.
	{
		Name:     "edge-clock-not-clamped",
		File:     "internal/edge/server.go",
		Old:      "\tif t < s.lastTime {\n\t\tt = s.lastTime\n\t}",
		New:      "\tif false {\n\t\tt = s.lastTime\n\t}",
		Packages: []string{"./internal/edge"},
		Run:      "^TestEdgeClampsClockStepBack$",
		Timeout:  20 * time.Second,
	},
	{
		Name:     "flight-covers-nothing",
		File:     "internal/edge/server.go",
		Old:      "return id.Video == first.Video && id.Index >= first.Index",
		New:      "return false && id.Video == first.Video && id.Index >= first.Index",
		Packages: []string{"./internal/edge"},
		Run:      "^TestChaosFlightCoalescingExactlyOneFetch$",
		Timeout:  20 * time.Second,
	},
}
