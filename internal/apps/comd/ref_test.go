package comd

import (
	"math"
	"math/rand"
	"testing"

	"match/internal/apps/appkit"
	"match/internal/apps/apptest"
	"match/internal/enc"
	"match/internal/mpi"
)

// The original all-pairs force loop, ghost exchange and migration, kept
// verbatim as the reference the cell-list kernel and the byte-packed
// payloads must match bit for bit. Only the work charge moved from
// refForces to Step, as it did in the kernel under test, and the
// package's slice helper is now the generic resize.

// refApp runs CoMD with the reference kernels in Step.
type refApp struct{ *App }

// refExchangeGhosts rebuilds ghost positions from the six neighbors with the
// three-phase scheme; coordinates crossing the periodic boundary are
// shifted so receivers see continuous positions.
func (a *App) refExchangeGhosts(ctx *appkit.Context) error {
	a.gx, a.gy, a.gz = a.gx[:0], a.gy[:0], a.gz[:0]
	dims := [3][3]int{{-1, 0, 0}, {0, -1, 0}, {0, 0, -1}}
	for ax := 0; ax < 3; ax++ {
		loNbr := a.d.NeighborWrap(dims[ax][0], dims[ax][1], dims[ax][2])
		hiNbr := a.d.NeighborWrap(-dims[ax][0], -dims[ax][1], -dims[ax][2])
		if loNbr == ctx.Rank() && hiNbr == ctx.Rank() {
			continue // single rank in this axis: minimum image handles it
		}
		// Collect border atoms from locals plus already-received ghosts.
		collect := func(takeLo bool) []float64 {
			var out []float64
			vals := a.axisVals(ax)
			push := func(px, py, pz, c float64) {
				if takeLo {
					if c < a.lo[ax]+cutoff {
						shift := 0.0
						if a.loEdge(ax) {
							shift = a.glob[ax]
						}
						out = a.refAppendShifted(out, px, py, pz, ax, shift)
					}
				} else if c >= a.hi[ax]-cutoff {
					shift := 0.0
					if a.hiEdge(ax) {
						shift = -a.glob[ax]
					}
					out = a.refAppendShifted(out, px, py, pz, ax, shift)
				}
			}
			for i := range a.x {
				push(a.x[i], a.y[i], a.z[i], vals[i])
			}
			gvals := a.ghostAxis(ax)
			for i := range a.gx {
				push(a.gx[i], a.gy[i], a.gz[i], gvals[i])
			}
			return out
		}
		loPayload := collect(true)
		hiPayload := collect(false)
		if err := mpi.Send(ctx.R, ctx.World, loNbr, tagGhostLo, enc.Float64sToBytes(loPayload)); err != nil {
			return err
		}
		if err := mpi.Send(ctx.R, ctx.World, hiNbr, tagGhostHi, enc.Float64sToBytes(hiPayload)); err != nil {
			return err
		}
		ml, err := mpi.Recv(ctx.R, ctx.World, loNbr, tagGhostHi)
		if err != nil {
			return err
		}
		mh, err := mpi.Recv(ctx.R, ctx.World, hiNbr, tagGhostLo)
		if err != nil {
			return err
		}
		for _, m := range []mpi.Message{ml, mh} {
			vals := enc.BytesToFloat64s(m.Data)
			for i := 0; i+2 < len(vals); i += 3 {
				a.gx = append(a.gx, vals[i])
				a.gy = append(a.gy, vals[i+1])
				a.gz = append(a.gz, vals[i+2])
			}
		}
	}
	return nil
}

func (a *App) refAppendShifted(out []float64, px, py, pz float64, ax int, shift float64) []float64 {
	switch ax {
	case 0:
		px += shift
	case 1:
		py += shift
	default:
		pz += shift
	}
	return append(out, px, py, pz)
}

// refMinImage wraps a displacement to the nearest periodic image.
func (a *App) refMinImage(d float64, ax int) float64 {
	L := a.glob[ax]
	if d > L/2 {
		d -= L
	} else if d < -L/2 {
		d += L
	}
	return d
}

// refForces computes LJ forces and potential energy; ghosts must be current.
func (a *App) refForces() {
	n := len(a.x)
	a.fx = resize(a.fx, n)
	a.fy = resize(a.fy, n)
	a.fz = resize(a.fz, n)
	for i := 0; i < n; i++ {
		a.fx[i], a.fy[i], a.fz[i] = 0, 0, 0
	}
	a.pe = 0
	rc2 := cutoff * cutoff
	// Shifted potential so e(cutoff)=0.
	s6 := math.Pow(sigma/cutoff, 6)
	eShift := 4 * epsilon * (s6*s6 - s6)
	pairs := 0
	pair := func(i int, xj, yj, zj float64, half bool) {
		dx := a.refMinImage(a.x[i]-xj, 0)
		dy := a.refMinImage(a.y[i]-yj, 1)
		dz := a.refMinImage(a.z[i]-zj, 2)
		r2 := dx*dx + dy*dy + dz*dz
		if r2 >= rc2 || r2 == 0 {
			return
		}
		inv2 := sigma * sigma / r2
		inv6 := inv2 * inv2 * inv2
		f := 24 * epsilon * inv6 * (2*inv6 - 1) / r2
		a.fx[i] += f * dx
		a.fy[i] += f * dy
		a.fz[i] += f * dz
		e := 4*epsilon*inv6*(inv6-1) - eShift
		if half {
			a.pe += e / 2
		} else {
			a.pe += e
		}
		pairs++
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j != i {
				pair(i, a.x[j], a.y[j], a.z[j], true)
			}
		}
		for g := range a.gx {
			pair(i, a.gx[g], a.gy[g], a.gz[g], true)
		}
	}
	_ = pairs
}

// refMigrate moves atoms that left the local box to the owning neighbor,
// three-phase, with periodic wrapping.
func (a *App) refMigrate(ctx *appkit.Context) error {
	for ax := 0; ax < 3; ax++ {
		dx, dy, dz := 0, 0, 0
		switch ax {
		case 0:
			dx = 1
		case 1:
			dy = 1
		default:
			dz = 1
		}
		loNbr := a.d.NeighborWrap(-dx, -dy, -dz)
		hiNbr := a.d.NeighborWrap(dx, dy, dz)
		vals := a.axisVals(ax)
		var stayIdx []int
		var loOut, hiOut []float64
		for i := range a.x {
			c := vals[i]
			switch {
			case c < a.lo[ax]:
				p := [3]float64{a.x[i], a.y[i], a.z[i]}
				if a.loEdge(ax) {
					p[ax] += a.glob[ax]
				}
				loOut = append(loOut, p[0], p[1], p[2], a.vx[i], a.vy[i], a.vz[i])
			case c >= a.hi[ax]:
				p := [3]float64{a.x[i], a.y[i], a.z[i]}
				if a.hiEdge(ax) {
					p[ax] -= a.glob[ax]
				}
				hiOut = append(hiOut, p[0], p[1], p[2], a.vx[i], a.vy[i], a.vz[i])
			default:
				stayIdx = append(stayIdx, i)
			}
		}
		if loNbr == ctx.Rank() && hiNbr == ctx.Rank() {
			// Single rank on this axis: wrap in place, nothing to send.
			for i := range a.x {
				if vals[i] < 0 {
					vals[i] += a.glob[ax]
				} else if vals[i] >= a.glob[ax] {
					vals[i] -= a.glob[ax]
				}
			}
			continue
		}
		keep := func(src []float64) []float64 {
			out := make([]float64, 0, len(stayIdx))
			for _, i := range stayIdx {
				out = append(out, src[i])
			}
			return out
		}
		a.x, a.y, a.z = keep(a.x), keep(a.y), keep(a.z)
		a.vx, a.vy, a.vz = keep(a.vx), keep(a.vy), keep(a.vz)
		if err := mpi.Send(ctx.R, ctx.World, loNbr, tagMigLo, enc.Float64sToBytes(loOut)); err != nil {
			return err
		}
		if err := mpi.Send(ctx.R, ctx.World, hiNbr, tagMigHi, enc.Float64sToBytes(hiOut)); err != nil {
			return err
		}
		ml, err := mpi.Recv(ctx.R, ctx.World, loNbr, tagMigHi)
		if err != nil {
			return err
		}
		mh, err := mpi.Recv(ctx.R, ctx.World, hiNbr, tagMigLo)
		if err != nil {
			return err
		}
		for _, m := range []mpi.Message{ml, mh} {
			vals := enc.BytesToFloat64s(m.Data)
			for i := 0; i+5 < len(vals); i += 6 {
				a.x = append(a.x, vals[i])
				a.y = append(a.y, vals[i+1])
				a.z = append(a.z, vals[i+2])
				a.vx = append(a.vx, vals[i+3])
				a.vy = append(a.vy, vals[i+4])
				a.vz = append(a.vz, vals[i+5])
			}
		}
	}
	return nil
}

// Step is the original Step over the reference kernels.
func (a refApp) Step(ctx *appkit.Context, iter int) error {
	if err := a.refExchangeGhosts(ctx); err != nil {
		return err
	}
	n := len(a.x)
	a.refForces()
	ctx.Charge(float64(n*(n+len(a.gx))) * 0.6)
	a.ke = 0
	for i := range a.x {
		a.vx[i] += dt * a.fx[i]
		a.vy[i] += dt * a.fy[i]
		a.vz[i] += dt * a.fz[i]
		a.x[i] += dt * a.vx[i]
		a.y[i] += dt * a.vy[i]
		a.z[i] += dt * a.vz[i]
		a.ke += 0.5 * (a.vx[i]*a.vx[i] + a.vy[i]*a.vy[i] + a.vz[i]*a.vz[i])
	}
	ctx.Charge(float64(len(a.x)) * 12)
	if err := a.refMigrate(ctx); err != nil {
		return err
	}
	e, err := appkit.SumAll(ctx, a.ke+a.pe)
	if err != nil {
		return err
	}
	a.energy = e
	return nil
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkForces runs both force kernels on a's state and compares every
// output bit.
func checkForces(t *testing.T, what string, a *App) {
	t.Helper()
	a.forces()
	fx := append([]float64(nil), a.fx...)
	fy := append([]float64(nil), a.fy...)
	fz := append([]float64(nil), a.fz...)
	pe := a.pe
	a.refForces()
	sameBits(t, what+" fx", fx, a.fx)
	sameBits(t, what+" fy", fy, a.fy)
	sameBits(t, what+" fz", fz, a.fz)
	sameBits(t, what+" pe", []float64{pe}, []float64{a.pe})
}

// Random atoms and ghosts in boxes whose axes get one bin (under three
// cutoffs long), a few bins, or many: jittered lattices give the usual
// neighbour shells, uniform clouds give near-coincident pairs, and atoms
// on the box faces and ghosts past them exercise the wrap.
func TestForcesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, cells := range [][3]int{{1, 1, 1}, {2, 2, 2}, {2, 3, 6}, {3, 3, 3}, {5, 1, 4}, {12, 12, 12}} {
		for trial := 0; trial < 4; trial++ {
			a := &App{}
			for ax := range a.glob {
				a.glob[ax] = float64(cells[ax]) * lat
			}
			place := func(lo, hi [3]float64) (x, y, z float64) {
				var p [3]float64
				for ax := range p {
					p[ax] = lo[ax] + rng.Float64()*(hi[ax]-lo[ax])
				}
				return p[0], p[1], p[2]
			}
			var zero, ext, glo, ghi [3]float64
			for ax := range ext {
				ext[ax] = a.glob[ax]
				glo[ax], ghi[ax] = -cutoff, a.glob[ax]+cutoff
			}
			if trial%2 == 0 {
				for cz := 0; cz < cells[2]; cz++ {
					for cy := 0; cy < cells[1]; cy++ {
						for cx := 0; cx < cells[0]; cx++ {
							for _, off := range [4][3]float64{{0, 0, 0}, {0.5, 0.5, 0}, {0.5, 0, 0.5}, {0, 0.5, 0.5}} {
								a.x = append(a.x, (float64(cx)+off[0])*lat+0.05*rng.NormFloat64())
								a.y = append(a.y, (float64(cy)+off[1])*lat+0.05*rng.NormFloat64())
								a.z = append(a.z, (float64(cz)+off[2])*lat+0.05*rng.NormFloat64())
							}
						}
					}
				}
			} else {
				for i := 0; i < 150; i++ {
					x, y, z := place(zero, ext)
					a.x, a.y, a.z = append(a.x, x), append(a.y, y), append(a.z, z)
				}
			}
			// Atoms on the faces of the box.
			a.x = append(a.x, 0, math.Nextafter(a.glob[0], 0), a.glob[0]/2)
			a.y = append(a.y, 0, a.glob[1]/2, math.Nextafter(a.glob[1], 0))
			a.z = append(a.z, math.Nextafter(a.glob[2], 0), 0, 0)
			for g := 0; g < 60*trial; g++ {
				x, y, z := place(glo, ghi)
				a.gx, a.gy, a.gz = append(a.gx, x), append(a.gy, y), append(a.gz, z)
			}
			checkForces(t, "random", a)
		}
	}
}

// Whole runs with the cell-list kernel and the reference kernels must
// agree on every rank's forces, energy, atoms and signature: on eight
// ranks, on one rank (every axis single-rank, so the minimum image does
// all the wrapping), and on lattices small enough that axes fall back to
// a single bin.
func TestRunMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name       string
		ranks      int
		nx, ny, nz int
	}{
		{"8 ranks", 8, 6, 6, 6},
		{"1 rank", 1, 4, 4, 4},
		{"1 rank, one-bin axes", 1, 2, 3, 5},
		{"8 ranks, one-bin axes", 8, 2, 2, 4},
	} {
		p := appkit.Params{NX: tc.nx, NY: tc.ny, NZ: tc.nz, MaxIter: 6}
		fast := apptest.Run(t, tc.ranks, p, func() appkit.App { return New() })
		ref := apptest.Run(t, tc.ranks, p, func() appkit.App { return refApp{New()} })
		sameBits(t, tc.name+" signature", fast.Sigs, ref.Sigs)
		for r := range fast.Apps {
			fa, ra := fast.Apps[r].(*App), ref.Apps[r].(refApp)
			for _, c := range []struct {
				name      string
				got, want []float64
			}{
				{"fx", fa.fx, ra.fx}, {"fy", fa.fy, ra.fy}, {"fz", fa.fz, ra.fz},
				{"x", fa.x, ra.x}, {"y", fa.y, ra.y}, {"z", fa.z, ra.z},
				{"vx", fa.vx, ra.vx}, {"vy", fa.vy, ra.vy}, {"vz", fa.vz, ra.vz},
				{"gx", fa.gx, ra.gx}, {"gy", fa.gy, ra.gy}, {"gz", fa.gz, ra.gz},
				{"pe, energy", []float64{fa.pe, fa.energy}, []float64{ra.pe, ra.energy}},
			} {
				sameBits(t, tc.name+" "+c.name, c.got, c.want)
			}
			checkForces(t, tc.name+" final", fa)
		}
	}
}

// BenchmarkComdForces times one force evaluation of a rank of the Small
// input: 3^3 lattice cells of a 12^3 box on 64 ranks, plus its ghosts.
func BenchmarkComdForces(b *testing.B) {
	res := apptest.Run(b, 64, appkit.Params{NX: 12, NY: 12, NZ: 12, MaxIter: 1},
		func() appkit.App { return New() })
	a := res.Apps[21].(*App)
	a.forces()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.forces()
	}
}
