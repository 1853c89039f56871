// Package lp is a self-contained linear-programming solver used by the
// Optimal (offline) cache to compute the paper's LP-relaxation lower
// bound (Section 7). No third-party solver is available to this
// repository, so the substrate is built from scratch.
//
// The solver is a two-phase revised primal simplex:
//
//   - constraint columns are stored sparse. The grid formulation
//     (optimal.SolveLP) has ≤ 6 nonzeros per column; Figure 2's interval
//     formulation does not: a gap variable has a nonzero in every disk
//     row it spans, up to 178 in one column, and northamerica's α = 1
//     instance has 31 942 nonzeros, 80 % of them in the disk rows,
//   - the basis inverse is maintained densely and updated with
//     product-form pivots (O(m²) per iteration),
//   - pricing is Dantzig's rule with an automatic switch to Bland's
//     rule when the objective stalls, guaranteeing termination.
//
// Problems are stated as: minimize c·x subject to sparse rows with
// senses ≤ / ≥ / =, and x ≥ 0. Phase 1 (artificial variables) is only
// entered when the slack basis is not primal-feasible.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is a constraint's relation.
type Sense int8

// Constraint senses.
const (
	LE Sense = iota // ≤
	GE              // ≥
	EQ              // =
)

// Coef is one nonzero coefficient of a constraint row.
type Coef struct {
	Var int
	Val float64
}

// Constraint is one sparse row: Σ Coeffs ⟨sense⟩ RHS.
type Constraint struct {
	Coeffs []Coef
	Sense  Sense
	RHS    float64
}

// Problem is minimize Objective·x subject to Constraints, x ≥ 0.
type Problem struct {
	NumVars     int
	Objective   []float64
	Constraints []Constraint
}

// AddConstraint appends a row built from parallel slices.
func (p *Problem) AddConstraint(vars []int, vals []float64, s Sense, rhs float64) {
	if len(vars) != len(vals) {
		panic("lp: vars/vals length mismatch")
	}
	cs := make([]Coef, len(vars))
	for i := range vars {
		cs[i] = Coef{Var: vars[i], Val: vals[i]}
	}
	p.Constraints = append(p.Constraints, Constraint{Coeffs: cs, Sense: s, RHS: rhs})
}

// Status reports how a solve ended.
type Status int8

// Solve statuses.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterationLimit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	default:
		return "unknown"
	}
}

// Solution is the result of Solve.
type Solution struct {
	Status     Status
	X          []float64 // primal values, len NumVars (valid when Optimal)
	Objective  float64
	Iterations int
}

// Options tune the solver.
type Options struct {
	// MaxIterations caps simplex pivots across both phases.
	// Defaults to 50000.
	MaxIterations int
	// Tol is the feasibility/optimality tolerance. Defaults to 1e-9.
	Tol float64
}

const (
	defaultMaxIter = 50000
	defaultTol     = 1e-9
	// stallLimit is how many non-improving Dantzig pivots are allowed
	// before switching to Bland's anti-cycling rule.
	stallLimit = 200
)

// column is a sparse standard-form column.
type column struct {
	rows []int32
	vals []float64
}

// tableau is the standard-form problem: min c·x, Ax = b, x ≥ 0.
type tableau struct {
	m, n  int // rows, columns (incl. slack/surplus/artificials)
	cols  []column
	b     []float64
	c     []float64
	nOrig int // original variable count
	artlo int // first artificial column index (== n when none)
}

// Solve runs the two-phase revised simplex.
func Solve(p *Problem, opt Options) (*Solution, error) {
	if p.NumVars <= 0 {
		return nil, errors.New("lp: problem has no variables")
	}
	if len(p.Objective) != p.NumVars {
		return nil, fmt.Errorf("lp: objective length %d != NumVars %d", len(p.Objective), p.NumVars)
	}
	if opt.MaxIterations == 0 {
		opt.MaxIterations = defaultMaxIter
	}
	if opt.Tol == 0 {
		opt.Tol = defaultTol
	}
	tab, basis, err := build(p)
	if err != nil {
		return nil, err
	}
	s := &state{tab: tab, basis: basis, tol: opt.Tol, maxIter: opt.MaxIterations}
	s.init()

	// Phase 1: minimize the sum of artificials if any are basic.
	if tab.artlo < tab.n {
		phase1 := make([]float64, tab.n)
		for j := tab.artlo; j < tab.n; j++ {
			phase1[j] = 1
		}
		status := s.run(phase1, true)
		if status == IterationLimit {
			return &Solution{Status: IterationLimit, Iterations: s.iters}, nil
		}
		if s.objective(phase1) > opt.Tol*float64(tab.m+1) {
			return &Solution{Status: Infeasible, Iterations: s.iters}, nil
		}
		s.banArtificials()
	}

	status := s.run(tab.c, false)
	sol := &Solution{Status: status, Iterations: s.iters}
	if status != Optimal {
		return sol, nil
	}
	sol.X = make([]float64, p.NumVars)
	for i, bj := range s.basis {
		if bj < tab.nOrig {
			sol.X[bj] = s.xB[i]
		}
	}
	sol.Objective = 0
	for j, v := range sol.X {
		sol.Objective += p.Objective[j] * v
	}
	return sol, nil
}

// build converts Problem to standard form with slack, surplus and
// artificial columns, and returns the initial (feasible) basis.
func build(p *Problem) (*tableau, []int, error) {
	m := len(p.Constraints)
	tab := &tableau{m: m, nOrig: p.NumVars}
	// Original columns.
	tab.cols = make([]column, p.NumVars)
	tab.b = make([]float64, m)
	senses := make([]Sense, m)
	for i, con := range p.Constraints {
		rhs, sense := con.RHS, con.Sense
		flip := rhs < 0
		if flip {
			rhs = -rhs
			switch sense {
			case LE:
				sense = GE
			case GE:
				sense = LE
			}
		}
		tab.b[i] = rhs
		senses[i] = sense
		for _, cf := range con.Coeffs {
			if cf.Var < 0 || cf.Var >= p.NumVars {
				return nil, nil, fmt.Errorf("lp: row %d references variable %d (NumVars=%d)", i, cf.Var, p.NumVars)
			}
			v := cf.Val
			if flip {
				v = -v
			}
			if v == 0 {
				continue
			}
			col := &tab.cols[cf.Var]
			col.rows = append(col.rows, int32(i))
			col.vals = append(col.vals, v)
		}
	}
	tab.c = append([]float64(nil), p.Objective...)

	basis := make([]int, m)
	addCol := func(row int, val float64, cost float64) int {
		tab.cols = append(tab.cols, column{rows: []int32{int32(row)}, vals: []float64{val}})
		tab.c = append(tab.c, cost)
		return len(tab.cols) - 1
	}
	// Slack/surplus first.
	needArt := make([]bool, m)
	for i, s := range senses {
		switch s {
		case LE:
			j := addCol(i, 1, 0)
			basis[i] = j
		case GE:
			addCol(i, -1, 0) // surplus, cannot start basic
			needArt[i] = true
		case EQ:
			needArt[i] = true
		default:
			return nil, nil, fmt.Errorf("lp: row %d has invalid sense %d", i, s)
		}
	}
	tab.artlo = len(tab.cols)
	for i := range senses {
		if needArt[i] {
			j := addCol(i, 1, 0)
			basis[i] = j
		}
	}
	tab.n = len(tab.cols)
	return tab, basis, nil
}

// state is the revised-simplex working set.
type state struct {
	tab     *tableau
	basis   []int
	inBasis []bool
	banned  []bool // artificials excluded after phase 1
	binv    []float64
	xB      []float64
	y       []float64 // dual prices scratch
	d       []float64 // pivot column scratch
	tol     float64
	maxIter int
	iters   int
}

func (s *state) init() {
	m := s.tab.m
	s.binv = make([]float64, m*m)
	for i := 0; i < m; i++ {
		s.binv[i*m+i] = 1
	}
	s.xB = append([]float64(nil), s.tab.b...)
	s.y = make([]float64, m)
	s.d = make([]float64, m)
	s.inBasis = make([]bool, s.tab.n)
	for _, j := range s.basis {
		s.inBasis[j] = true
	}
	s.banned = make([]bool, s.tab.n)
}

// banArtificials excludes artificial columns from phase-2 pricing and
// pivots any artificial still basic (at value zero) out of the basis.
// Leaving one basic would let later pivots push it positive again,
// silently relaxing its constraint row. A row where no real column can
// replace the artificial is linearly redundant and safe to leave.
func (s *state) banArtificials() {
	for j := s.tab.artlo; j < s.tab.n; j++ {
		s.banned[j] = true
	}
	m := s.tab.m
	for i := 0; i < m; i++ {
		if s.basis[i] < s.tab.artlo {
			continue
		}
		row := s.binv[i*m : i*m+m]
		for j := 0; j < s.tab.artlo; j++ {
			if s.inBasis[j] {
				continue
			}
			col := &s.tab.cols[j]
			v := 0.0
			for k, r := range col.rows {
				v += row[r] * col.vals[k]
			}
			if math.Abs(v) <= s.tol {
				continue
			}
			// Degenerate pivot: xB[i] is zero, so feasibility is
			// preserved for any nonzero pivot element.
			for q := 0; q < m; q++ {
				s.d[q] = 0
			}
			for k, r := range col.rows {
				val := col.vals[k]
				for q := 0; q < m; q++ {
					s.d[q] += s.binv[q*m+int(r)] * val
				}
			}
			s.pivot(j, i)
			break
		}
	}
}

// objective evaluates cost·xB for the current basis.
func (s *state) objective(cost []float64) float64 {
	obj := 0.0
	for i, bj := range s.basis {
		obj += cost[bj] * s.xB[i]
	}
	return obj
}

// colDot computes yᵀ·A_j for sparse column j.
func (s *state) colDot(j int) float64 {
	col := &s.tab.cols[j]
	sum := 0.0
	for k, r := range col.rows {
		sum += s.y[r] * col.vals[k]
	}
	return sum
}

// run iterates the simplex with the given cost vector until optimal,
// unbounded or the iteration cap. phase1 limits degenerate stalling
// handling slightly differently (artificials may leave at zero).
func (s *state) run(cost []float64, phase1 bool) Status {
	m := s.tab.m
	lastObj := math.Inf(1)
	stall := 0
	bland := false
	for ; s.iters < s.maxIter; s.iters++ {
		// Dual prices y = c_Bᵀ B⁻¹.
		for col := 0; col < m; col++ {
			s.y[col] = 0
		}
		for i, bj := range s.basis {
			cb := cost[bj]
			if cb == 0 {
				continue
			}
			row := s.binv[i*m : i*m+m]
			for col := 0; col < m; col++ {
				s.y[col] += cb * row[col]
			}
		}
		// Price nonbasic columns.
		enter := -1
		best := -s.tol
		for j := 0; j < s.tab.n; j++ {
			if s.inBasis[j] || s.banned[j] {
				continue
			}
			rc := cost[j] - s.colDot(j)
			if bland {
				if rc < -s.tol {
					enter = j
					break
				}
			} else if rc < best {
				best = rc
				enter = j
			}
		}
		if enter < 0 {
			return Optimal
		}
		// Direction d = B⁻¹ A_enter.
		col := &s.tab.cols[enter]
		for i := 0; i < m; i++ {
			s.d[i] = 0
		}
		for k, r := range col.rows {
			v := col.vals[k]
			for i := 0; i < m; i++ {
				s.d[i] += s.binv[i*m+int(r)] * v
			}
		}
		// Ratio test (Bland tie-break: smallest basis label).
		leave := -1
		minRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			if s.d[i] > s.tol {
				ratio := s.xB[i] / s.d[i]
				if ratio < minRatio-s.tol || (ratio < minRatio+s.tol && (leave < 0 || s.basis[i] < s.basis[leave])) {
					minRatio = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return Unbounded
		}
		s.pivot(enter, leave)

		obj := s.objective(cost)
		if obj < lastObj-s.tol {
			lastObj = obj
			stall = 0
			bland = false
		} else {
			stall++
			if stall >= stallLimit {
				bland = true
			}
		}
	}
	return IterationLimit
}

// pivot brings column enter into the basis at row leave, updating the
// dense basis inverse and the basic solution in place.
func (s *state) pivot(enter, leave int) {
	m := s.tab.m
	piv := s.d[leave]
	// Scale the leaving row.
	lrow := s.binv[leave*m : leave*m+m]
	inv := 1 / piv
	for col := 0; col < m; col++ {
		lrow[col] *= inv
	}
	s.xB[leave] *= inv
	// Eliminate from the other rows.
	for i := 0; i < m; i++ {
		if i == leave {
			continue
		}
		f := s.d[i]
		if f == 0 {
			continue
		}
		row := s.binv[i*m : i*m+m]
		for col := 0; col < m; col++ {
			row[col] -= f * lrow[col]
		}
		s.xB[i] -= f * s.xB[leave]
		if s.xB[i] < 0 && s.xB[i] > -s.tol {
			s.xB[i] = 0 // clamp tiny negatives from roundoff
		}
	}
	s.inBasis[s.basis[leave]] = false
	s.inBasis[enter] = true
	s.basis[leave] = enter
}
