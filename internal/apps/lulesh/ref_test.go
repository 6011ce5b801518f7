package lulesh

import (
	"math"
	"math/rand"
	"testing"

	"match/internal/apps/appkit"
	"match/internal/apps/apptest"
)

// refFlux is the original per-face Rusanov flux, kept verbatim as the
// reference the once-per-face fluxes must match bit for bit.
func (a *App) refFlux(lx, ly, lz, rx, ry, rz, dir int, smax float64) [5]float64 {
	var out [5]float64
	side := func(x, y, z int) ([5]float64, [5]float64) {
		var u, f [5]float64
		u[0] = a.flds[0].At(x, y, z)
		u[1] = a.flds[1].At(x, y, z)
		u[2] = a.flds[2].At(x, y, z)
		u[3] = a.flds[3].At(x, y, z)
		u[4] = a.flds[4].At(x, y, z)
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
		return u, f
	}
	ul, fl := side(lx, ly, lz)
	ur, fr := side(rx, ry, rz)
	for k := 0; k < 5; k++ {
		out[k] = 0.5*(fl[k]+fr[k]) - 0.5*smax*(ur[k]-ul[k])
	}
	return out
}

// refAdvance is the original update loop of Step, verbatim.
func (a *App) refAdvance(dt, gmax float64) {
	d := a.d
	n := d.LX * d.LY * d.LZ
	for i := range a.news {
		a.news[i] = grow(a.news[i], n)
	}
	li := 0
	dirs := [3][3]int{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	for z := 1; z <= d.LZ; z++ {
		for y := 1; y <= d.LY; y++ {
			for x := 1; x <= d.LX; x++ {
				var u [5]float64
				for k := 0; k < 5; k++ {
					u[k] = a.flds[k].At(x, y, z)
				}
				for dir := 0; dir < 3; dir++ {
					dx, dy, dz := dirs[dir][0], dirs[dir][1], dirs[dir][2]
					fp := a.refFlux(x, y, z, x+dx, y+dy, z+dz, dir, gmax)
					fm := a.refFlux(x-dx, y-dy, z-dz, x, y, z, dir, gmax)
					for k := 0; k < 5; k++ {
						u[k] -= dt / a.h * (fp[k] - fm[k])
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
}

// refApp runs LULESH with the reference update loop in Step.
type refApp struct{ *App }

func (a refApp) Step(ctx *appkit.Context, iter int) error {
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
	a.refAdvance(dt, gmax)
	n := d.LX * d.LY * d.LZ
	ctx.Charge(float64(n) * 180)
	for k := 0; k < 5; k++ {
		copy(a.flat[k], a.news[k])
		a.flds[k].SetInterior(a.flat[k])
	}
	a.t += dt
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

// randomApp builds rank's block of an s^3-per-rank mesh with every cell,
// ghosts included, holding a random but physical state.
func randomApp(rng *rand.Rand, rank, size, s int) *App {
	px, _, _ := appkit.Factor3D(size)
	g := s * px
	a := &App{d: appkit.NewDecomp3D(rank, size, g, g, g), h: 1.0 / float64(g)}
	for k := range a.flds {
		a.flds[k] = appkit.NewField3D(a.d)
		for i := range a.flds[k].V {
			switch k {
			case 0:
				a.flds[k].V[i] = 0.5 + rng.Float64()
			case 4:
				a.flds[k].V[i] = 1 + 10*rng.Float64()
			default:
				a.flds[k].V[i] = rng.NormFloat64()
			}
		}
	}
	// A vacuum cell exercises the zero-density branch of the flux.
	a.flds[0].V[a.flds[0].Idx(1, 1, 1)] = 0
	return a
}

// One update from the once-per-face fluxes must equal the reference
// update bit for bit, on a sole rank and on every rank of eight.
func TestAdvanceBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, size := range []int{1, 8} {
		for rank := 0; rank < size; rank++ {
			a := randomApp(rng, rank, size, 5)
			a.advance(0.01, 7.5)
			var got [5][]float64
			for k := range got {
				got[k] = append([]float64(nil), a.news[k]...)
			}
			a.refAdvance(0.01, 7.5)
			for k := range got {
				sameBits(t, "field", got[k], a.news[k])
			}
		}
	}
}

// Whole runs with the fast and the reference Step must end in the same
// fields, time and signature on every rank, both on a rank whose faces
// are all domain boundary and on ranks with interior faces.
func TestStepMatchesReference(t *testing.T) {
	for _, size := range []int{1, 8} {
		p := appkit.Params{S: 4, MaxIter: 15}
		fast := apptest.Run(t, size, p, func() appkit.App { return New() })
		ref := apptest.Run(t, size, p, func() appkit.App { return refApp{New()} })
		sameBits(t, "signature", fast.Sigs, ref.Sigs)
		for r := range fast.Apps {
			fa, ra := fast.Apps[r].(*App), ref.Apps[r].(refApp)
			for k := range fa.flat {
				sameBits(t, "field", fa.flat[k], ra.flat[k])
			}
			sameBits(t, "time", []float64{fa.t}, []float64{ra.t})
		}
	}
}

func BenchmarkLuleshFaces(b *testing.B) {
	a := randomApp(rand.New(rand.NewSource(1)), 0, 1, 6)
	a.advance(0.01, 7.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.advance(0.01, 7.5)
	}
}
