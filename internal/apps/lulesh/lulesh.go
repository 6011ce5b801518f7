// Package lulesh reproduces the LULESH proxy application's problem and
// execution structure: an explicit shock-hydrodynamics solve of the Sedov
// blast on a 3D structured mesh with cube process counts, face halo
// exchanges every step, and the global Courant timestep reduction that
// dominates LULESH's collective traffic.
//
// Substitution note (DESIGN.md): the original integrates Lagrangian hex
// elements with hourglass control; this implementation solves the same
// Sedov problem with a finite-volume Euler scheme (Rusanov fluxes, ideal
// gas EOS). The iteration structure, data volumes, communication pattern,
// and checkpointable state (the five conserved fields) are preserved,
// which is what the fault-tolerance benchmark exercises.
package lulesh

import (
	"fmt"
	"math"
	"sync"

	"match/internal/apps/appkit"
	"match/internal/fti"
)

const (
	gamma  = 1.4
	cfl    = 0.3
	eBase  = 1e-4 // background specific total energy
	eBlast = 50.0
)

// App is the hydro state for one rank.
type App struct {
	d    *appkit.Decomp3D
	h    float64            // cell size
	flds [5]*appkit.Field3D // rho, mx, my, mz, E
	flat [5][]float64       // checkpoint views
	t    float64            // simulated physical time (protected)
	news [5][]float64       // scratch updates
}

// New returns a LULESH instance.
func New() *App { return &App{} }

// Name implements appkit.App.
func (a *App) Name() string { return "LULESH" }

// Init implements appkit.App. Params.S is the per-process edge (LULESH -s).
func (a *App) Init(ctx *appkit.Context) error {
	s := ctx.Params.S
	if s <= 0 {
		return fmt.Errorf("lulesh: bad -s %d", s)
	}
	size := ctx.Size()
	px, py, pz := appkit.Factor3D(size)
	if px != py || py != pz {
		return fmt.Errorf("lulesh: needs a cube process count, got %d (=%dx%dx%d)", size, px, py, pz)
	}
	g := s * px
	a.d = appkit.NewDecomp3D(ctx.Rank(), size, g, g, g)
	a.h = 1.0 / float64(g)
	for i := range a.flds {
		a.flds[i] = appkit.NewField3D(a.d)
	}
	d := a.d
	for z := 1; z <= d.LZ; z++ {
		for y := 1; y <= d.LY; y++ {
			for x := 1; x <= d.LX; x++ {
				a.flds[0].Set(x, y, z, 1.0)   // density
				a.flds[4].Set(x, y, z, eBase) // energy
			}
		}
	}
	// Sedov: deposit blast energy in the global origin cell.
	if d.OX == 0 && d.OY == 0 && d.OZ == 0 {
		a.flds[4].Set(1, 1, 1, eBlast)
	}
	a.t = 0
	for i := range a.flds {
		a.flat[i] = a.flds[i].Interior()
		ctx.FTI.Protect(1+i, fti.F64s{P: &a.flat[i]})
	}
	ctx.FTI.Protect(6, fti.F64{P: &a.t})
	return nil
}

// pressure computes p from conserved values.
func pressure(rho, mx, my, mz, e float64) float64 {
	if rho <= 0 {
		return 0
	}
	kin := 0.5 * (mx*mx + my*my + mz*mz) / rho
	p := (gamma - 1) * (e - kin)
	if p < 0 {
		p = 0
	}
	return p
}

// reflectBoundaries fills domain-boundary ghosts with outflow copies.
func (a *App) reflectBoundaries() {
	d := a.d
	for _, f := range a.flds {
		if d.CX == 0 {
			for z := 0; z < f.SZ; z++ {
				for y := 0; y < f.SY; y++ {
					f.Set(0, y, z, f.At(1, y, z))
				}
			}
		}
		if d.CX == d.PX-1 {
			for z := 0; z < f.SZ; z++ {
				for y := 0; y < f.SY; y++ {
					f.Set(d.LX+1, y, z, f.At(d.LX, y, z))
				}
			}
		}
		if d.CY == 0 {
			for z := 0; z < f.SZ; z++ {
				for x := 0; x < f.SX; x++ {
					f.Set(x, 0, z, f.At(x, 1, z))
				}
			}
		}
		if d.CY == d.PY-1 {
			for z := 0; z < f.SZ; z++ {
				for x := 0; x < f.SX; x++ {
					f.Set(x, d.LY+1, z, f.At(x, d.LY, z))
				}
			}
		}
		if d.CZ == 0 {
			for y := 0; y < f.SY; y++ {
				for x := 0; x < f.SX; x++ {
					f.Set(x, y, 0, f.At(x, y, 1))
				}
			}
		}
		if d.CZ == d.PZ-1 {
			for y := 0; y < f.SY; y++ {
				for x := 0; x < f.SX; x++ {
					f.Set(x, y, d.LZ+1, f.At(x, y, d.LZ))
				}
			}
		}
	}
}

// wavespeed returns |u|+c for a cell.
func (a *App) wavespeed(x, y, z int) float64 {
	rho := a.flds[0].At(x, y, z)
	if rho <= 0 {
		return 0
	}
	mx, my, mz := a.flds[1].At(x, y, z), a.flds[2].At(x, y, z), a.flds[3].At(x, y, z)
	e := a.flds[4].At(x, y, z)
	p := pressure(rho, mx, my, mz, e)
	u := math.Sqrt(mx*mx+my*my+mz*mz) / rho
	c := math.Sqrt(gamma * p / rho)
	return u + c
}

// sideFlux returns the physical flux of the conserved state u across a
// face normal to direction dir (0,1,2).
func sideFlux(u *[5]float64, dir int) [5]float64 {
	var f [5]float64
	p := pressure(u[0], u[1], u[2], u[3], u[4])
	vel := 0.0
	if u[0] > 0 {
		vel = u[1+dir] / u[0]
	}
	f[0] = u[1+dir]
	for k := 0; k < 3; k++ {
		f[1+k] = u[1+k] * vel
	}
	f[1+dir] += p
	f[4] = (u[4] + p) * vel
	return f
}

// faceBuf recycles the face flux scratch advance fills each step. advance
// never yields to the scheduler between Get and Put, so the pool holds
// about one buffer per worker thread instead of one per simulated rank.
var faceBuf sync.Pool

// faces fills flux[dir][5*i:5*i+5] with the Rusanov flux across the face
// between the cell at ghosted flat index i and its low neighbour in
// direction dir, for every face of the interior. Walking each line of
// cells along dir evaluates every cell's side state once per direction
// and every face's flux once, instead of twice per face. The inputs of a
// face's flux are the same whichever cell asks, so are its bits.
func (a *App) faces(flux *[3][]float64, smax float64) {
	d, f0 := a.d, a.flds[0]
	strides := [3]int{1, f0.SX, f0.SX * f0.SY}
	lens := [3]int{d.LX, d.LY, d.LZ}
	for dir := 0; dir < 3; dir++ {
		out := flux[dir]
		st := strides[dir]
		var first [3]int
		for ax := range first {
			if ax != dir {
				first[ax] = 1
			}
		}
		last := lens
		last[dir] = 0
		for z := first[2]; z <= last[2]; z++ {
			for y := first[1]; y <= last[1]; y++ {
				for x := first[0]; x <= last[0]; x++ {
					i := f0.Idx(x, y, z)
					ul := a.state(i)
					fl := sideFlux(&ul, dir)
					for t := 1; t <= lens[dir]+1; t++ {
						i += st
						ur := a.state(i)
						fr := sideFlux(&ur, dir)
						o := out[5*i:][:5]
						for k := 0; k < 5; k++ {
							o[k] = 0.5*(fl[k]+fr[k]) - 0.5*smax*(ur[k]-ul[k])
						}
						ul, fl = ur, fr
					}
				}
			}
		}
	}
}

// state returns the five conserved values at ghosted flat index i.
func (a *App) state(i int) [5]float64 {
	return [5]float64{a.flds[0].V[i], a.flds[1].V[i], a.flds[2].V[i], a.flds[3].V[i], a.flds[4].V[i]}
}

// advance writes the finite-volume update of every interior cell into
// a.news, x-fastest; ghosts must be current. Each cell subtracts its
// face differences in the original order: direction by direction, each
// as dt / a.h times (fp - fm).
func (a *App) advance(dt, smax float64) {
	d, f0 := a.d, a.flds[0]
	n := d.LX * d.LY * d.LZ
	for i := range a.news {
		a.news[i] = grow(a.news[i], n)
	}
	buf, _ := faceBuf.Get().(*[3][]float64)
	if buf == nil {
		buf = new([3][]float64)
	}
	for dir := range buf {
		buf[dir] = grow(buf[dir], 5*len(f0.V))
	}
	a.faces(buf, smax)
	strides := [3]int{1, f0.SX, f0.SX * f0.SY}
	r := dt / a.h // one quotient, the same for every term
	li := 0
	for z := 1; z <= d.LZ; z++ {
		for y := 1; y <= d.LY; y++ {
			for x := 1; x <= d.LX; x++ {
				i := f0.Idx(x, y, z)
				u := a.state(i)
				for dir := 0; dir < 3; dir++ {
					fm := buf[dir][5*i:][:5]
					fp := buf[dir][5*(i+strides[dir]):][:5]
					for k := 0; k < 5; k++ {
						u[k] -= r * (fp[k] - fm[k])
					}
				}
				if u[0] < 1e-10 {
					u[0] = 1e-10
				}
				for k := 0; k < 5; k++ {
					a.news[k][li] = u[k]
				}
				li++
			}
		}
	}
	faceBuf.Put(buf)
}

// Step implements appkit.App: halo exchange, global Courant dt, one
// finite-volume update.
func (a *App) Step(ctx *appkit.Context, iter int) error {
	// Restore field interiors from the checkpoint views (no-ops except
	// right after recovery).
	for i := range a.flds {
		a.flds[i].SetInterior(a.flat[i])
	}
	for i := range a.flds {
		if err := a.flds[i].Exchange(ctx); err != nil {
			return err
		}
	}
	a.reflectBoundaries()
	d := a.d
	// Courant condition: global max wavespeed (LULESH's per-step allreduce).
	smax := 1e-12
	for z := 1; z <= d.LZ; z++ {
		for y := 1; y <= d.LY; y++ {
			for x := 1; x <= d.LX; x++ {
				if s := a.wavespeed(x, y, z); s > smax {
					smax = s
				}
			}
		}
	}
	gmax, err := appkit.MaxAll(ctx, smax)
	if err != nil {
		return err
	}
	dt := cfl * a.h / gmax
	a.advance(dt, gmax)
	n := d.LX * d.LY * d.LZ
	ctx.Charge(float64(n) * 180)
	for k := 0; k < 5; k++ {
		copy(a.flat[k], a.news[k])
		a.flds[k].SetInterior(a.flat[k])
	}
	a.t += dt
	return nil
}

func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Signature implements appkit.App: conserved total energy plus the maximum
// density (shock position proxy) plus elapsed physical time.
func (a *App) Signature(ctx *appkit.Context) (float64, error) {
	localE, localRhoMax := 0.0, 0.0
	for i, e := range a.flat[4] {
		localE += e
		if a.flat[0][i] > localRhoMax {
			localRhoMax = a.flat[0][i]
		}
	}
	totE, err := appkit.SumAll(ctx, localE)
	if err != nil {
		return 0, err
	}
	rhoMax, err := appkit.MaxAll(ctx, localRhoMax)
	if err != nil {
		return 0, err
	}
	return totE + rhoMax + a.t, nil
}

// Time returns the simulated physical time.
func (a *App) Time() float64 { return a.t }
