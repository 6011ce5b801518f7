// Package hpccg reproduces the HPCCG proxy application: a conjugate
// gradient solver on a 27-point stencil over a 3D grid in a chimney
// domain. As in the original, each process owns an NX x NY x NZ local grid
// and processes are stacked along z (1D decomposition), so only the top
// and bottom XY planes are exchanged.
package hpccg

import (
	"errors"
	"fmt"
	"sync"

	"match/internal/apps/appkit"
	"match/internal/enc"
	"match/internal/fti"
	"match/internal/mpi"
)

// App is the HPCCG solver state for one rank.
type App struct {
	nx, ny, nz int
	n          int // local unknowns
	rank, size int

	x, r, p, ap []float64
	b           []float64
	rho         float64

	loGhost, hiGhost []float64 // z ghost planes of p
}

// New returns an HPCCG instance; dimensions are the per-process local grid
// (the meaning of HPCCG's command-line triplet, as in Table I).
func New() *App { return &App{} }

// Name implements appkit.App.
func (a *App) Name() string { return "HPCCG" }

// Init implements appkit.App: allocate CG state and protect it.
func (a *App) Init(ctx *appkit.Context) error {
	p := ctx.Params
	a.nx, a.ny, a.nz = p.NX, p.NY, p.NZ
	if a.nx <= 0 || a.ny <= 0 || a.nz <= 0 {
		return fmt.Errorf("hpccg: bad local grid %dx%dx%d", a.nx, a.ny, a.nz)
	}
	a.rank, a.size = ctx.Rank(), ctx.Size()
	a.n = a.nx * a.ny * a.nz
	a.x = make([]float64, a.n)
	a.b = make([]float64, a.n)
	a.ap = make([]float64, a.n)
	a.loGhost = make([]float64, a.nx*a.ny)
	a.hiGhost = make([]float64, a.nx*a.ny)

	// b = A * ones: the canonical HPCCG right-hand side.
	ones := make([]float64, a.n)
	for i := range ones {
		ones[i] = 1
	}
	loOnes := make([]float64, a.nx*a.ny)
	hiOnes := make([]float64, a.nx*a.ny)
	if a.rank > 0 {
		for i := range loOnes {
			loOnes[i] = 1
		}
	}
	if a.rank < a.size-1 {
		for i := range hiOnes {
			hiOnes[i] = 1
		}
	}
	a.spmv(a.b, ones, loOnes, hiOnes)

	// CG start: x=0, r=b, p=r.
	a.r = append([]float64(nil), a.b...)
	a.p = append([]float64(nil), a.b...)
	rho := 0.0
	for _, v := range a.r {
		rho += v * v
	}
	var err error
	a.rho, err = appkit.SumAll(ctx, rho)
	if err != nil {
		return err
	}

	ctx.FTI.Protect(1, fti.F64s{P: &a.x})
	ctx.FTI.Protect(2, fti.F64s{P: &a.r})
	ctx.FTI.Protect(3, fti.F64s{P: &a.p})
	ctx.FTI.Protect(4, fti.F64{P: &a.rho})
	return nil
}

func (a *App) idx(i, j, k int) int { return i + a.nx*(j+a.ny*k) }

// spmvPad recycles the zero-padded copies of v that spmv reads. spmv
// never yields to the scheduler between Get and Put, so the pool holds
// about one buffer per worker thread instead of one per simulated rank.
var spmvPad sync.Pool

// spmv computes out = A*v for the 27-point operator with the given z ghost
// planes. Diagonal 27, off-diagonals -1 (rows at domain boundaries have
// fewer neighbors, keeping A diagonally dominant and SPD).
//
// v and the ghost planes are first copied into a zero-padded
// (nx+2)(ny+2)(nz+2) grid, so each point subtracts its 26 neighbours from
// nine padded rows in dk, dj, di order with no bounds tests. A missing
// neighbour reads a padded 0.0, which the operator subtracts exactly as it
// always has.
func (a *App) spmv(out, v, lo, hi []float64) {
	px, py := a.nx+2, a.ny+2
	buf, _ := spmvPad.Get().(*[]float64)
	if buf == nil {
		buf = new([]float64)
	}
	pad := *buf
	if need := px * py * (a.nz + 2); cap(pad) < need {
		pad = make([]float64, need)
	} else {
		pad = pad[:need]
		clear(pad)
	}
	for k := -1; k <= a.nz; k++ {
		for j := 0; j < a.ny; j++ {
			var src []float64
			switch {
			case k < 0:
				src = lo[a.nx*j:]
			case k == a.nz:
				src = hi[a.nx*j:]
			default:
				src = v[a.idx(0, j, k):]
			}
			copy(pad[1+px*(j+1+py*(k+1)):], src[:a.nx])
		}
	}
	plane := px * py
	for k := 0; k < a.nz; k++ {
		for j := 0; j < a.ny; j++ {
			row := a.idx(0, j, k)
			c := px * (j + 1 + py*(k+1)) // pad index of the row's i = -1 neighbour
			w := a.nx + 2
			// The nine neighbour rows, each starting at di = -1, named by
			// dk (m, z, p for -1, 0, +1) then dj (m, 0, p).
			mm, m0, mp := pad[c-plane-px:][:w], pad[c-plane:][:w], pad[c-plane+px:][:w]
			zm, z0, zp := pad[c-px:][:w], pad[c:][:w], pad[c+px:][:w]
			pm, p0, pp := pad[c+plane-px:][:w], pad[c+plane:][:w], pad[c+plane+px:][:w]
			vRow, outRow := v[row:][:a.nx], out[row:][:a.nx]
			for i := range vRow {
				sum := 27 * vRow[i]
				sum -= mm[i]
				sum -= mm[i+1]
				sum -= mm[i+2]
				sum -= m0[i]
				sum -= m0[i+1]
				sum -= m0[i+2]
				sum -= mp[i]
				sum -= mp[i+1]
				sum -= mp[i+2]
				sum -= zm[i]
				sum -= zm[i+1]
				sum -= zm[i+2]
				sum -= z0[i]
				sum -= z0[i+2]
				sum -= zp[i]
				sum -= zp[i+1]
				sum -= zp[i+2]
				sum -= pm[i]
				sum -= pm[i+1]
				sum -= pm[i+2]
				sum -= p0[i]
				sum -= p0[i+1]
				sum -= p0[i+2]
				sum -= pp[i]
				sum -= pp[i+1]
				sum -= pp[i+2]
				outRow[i] = sum
			}
		}
	}
	*buf = pad
	spmvPad.Put(buf)
}

const (
	tagDown = 2001
	tagUp   = 2002
)

// exchange refreshes the z ghost planes of vec from the stack neighbors.
func (a *App) exchange(ctx *appkit.Context, vec []float64) error {
	plane := a.nx * a.ny
	if a.rank > 0 {
		low := enc.Float64sToBytes(vec[:plane])
		if err := mpi.Send(ctx.R, ctx.World, a.rank-1, tagDown, low); err != nil {
			return err
		}
	}
	if a.rank < a.size-1 {
		high := enc.Float64sToBytes(vec[a.n-plane:])
		if err := mpi.Send(ctx.R, ctx.World, a.rank+1, tagUp, high); err != nil {
			return err
		}
	}
	for i := range a.loGhost {
		a.loGhost[i] = 0
		a.hiGhost[i] = 0
	}
	if a.rank > 0 {
		m, err := mpi.Recv(ctx.R, ctx.World, a.rank-1, tagUp)
		if err != nil {
			return err
		}
		enc.FillFloat64s(a.loGhost, m.Data)
	}
	if a.rank < a.size-1 {
		m, err := mpi.Recv(ctx.R, ctx.World, a.rank+1, tagDown)
		if err != nil {
			return err
		}
		enc.FillFloat64s(a.hiGhost, m.Data)
	}
	return nil
}

// ErrBreakdown indicates CG breakdown (should not happen on this SPD
// operator; kept as a guard).
var ErrBreakdown = errors.New("hpccg: pAp vanished, CG breakdown")

// Step implements appkit.App: one CG iteration.
func (a *App) Step(ctx *appkit.Context, iter int) error {
	if err := a.exchange(ctx, a.p); err != nil {
		return err
	}
	a.spmv(a.ap, a.p, a.loGhost, a.hiGhost)
	ctx.Charge(float64(a.n) * 54) // 27-pt stencil: ~2 flops per nonzero
	pap, err := appkit.Dot(ctx, a.p, a.ap)
	if err != nil {
		return err
	}
	if pap == 0 {
		return ErrBreakdown
	}
	alpha := a.rho / pap
	localRho := 0.0
	for i := range a.x {
		a.x[i] += alpha * a.p[i]
		a.r[i] -= alpha * a.ap[i]
		localRho += a.r[i] * a.r[i]
	}
	ctx.Charge(float64(a.n) * 6)
	rhoNew, err := appkit.SumAll(ctx, localRho)
	if err != nil {
		return err
	}
	beta := rhoNew / a.rho
	a.rho = rhoNew
	for i := range a.p {
		a.p[i] = a.r[i] + beta*a.p[i]
	}
	ctx.Charge(float64(a.n) * 2)
	return nil
}

// Signature implements appkit.App: the final residual plus solution norm,
// both computed with deterministic reductions, so recovered runs must match
// failure-free runs exactly.
func (a *App) Signature(ctx *appkit.Context) (float64, error) {
	xx, err := appkit.Dot(ctx, a.x, a.x)
	if err != nil {
		return 0, err
	}
	return a.rho + xx, nil
}

// Residual returns the current global squared residual.
func (a *App) Residual() float64 { return a.rho }
