package hpccg

import (
	"math"
	"math/rand"
	"testing"

	"match/internal/apps/appkit"
	"match/internal/apps/apptest"
	"match/internal/fti"
)

// refSpmv is the original closure-based 27-point operator, kept verbatim
// as the reference the padded-halo spmv must match bit for bit.
func (a *App) refSpmv(out, v, lo, hi []float64) {
	at := func(i, j, k int) float64 {
		if i < 0 || i >= a.nx || j < 0 || j >= a.ny {
			return 0
		}
		switch {
		case k < 0:
			return lo[i+a.nx*j]
		case k >= a.nz:
			return hi[i+a.nx*j]
		default:
			return v[a.idx(i, j, k)]
		}
	}
	for k := 0; k < a.nz; k++ {
		for j := 0; j < a.ny; j++ {
			for i := 0; i < a.nx; i++ {
				sum := 27 * v[a.idx(i, j, k)]
				for dk := -1; dk <= 1; dk++ {
					for dj := -1; dj <= 1; dj++ {
						for di := -1; di <= 1; di++ {
							if di == 0 && dj == 0 && dk == 0 {
								continue
							}
							sum -= at(i+di, j+dj, k+dk)
						}
					}
				}
				out[a.idx(i, j, k)] = sum
			}
		}
	}
}

// refApp runs HPCCG with the reference operator in Init and Step.
type refApp struct{ *App }

func (a refApp) Init(ctx *appkit.Context) error {
	p := ctx.Params
	a.nx, a.ny, a.nz = p.NX, p.NY, p.NZ
	a.rank, a.size = ctx.Rank(), ctx.Size()
	a.n = a.nx * a.ny * a.nz
	a.x = make([]float64, a.n)
	a.b = make([]float64, a.n)
	a.ap = make([]float64, a.n)
	a.loGhost = make([]float64, a.nx*a.ny)
	a.hiGhost = make([]float64, a.nx*a.ny)
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
	a.refSpmv(a.b, ones, loOnes, hiOnes)
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

func (a refApp) Step(ctx *appkit.Context, iter int) error {
	if err := a.exchange(ctx, a.p); err != nil {
		return err
	}
	a.refSpmv(a.ap, a.p, a.loGhost, a.hiGhost)
	ctx.Charge(float64(a.n) * 54)
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

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
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

// The padded-halo spmv must reproduce the reference bit for bit on every
// rank position of the z stack: the first and last ranks see one zero
// ghost plane, a middle rank none, a sole rank two.
func TestSpmvBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name       string
		rank, size int
	}{{"first", 0, 4}, {"middle", 2, 4}, {"last", 3, 4}, {"sole", 0, 1}} {
		for _, dims := range [][3]int{{12, 12, 12}, {5, 3, 7}, {1, 1, 1}} {
			a := &App{nx: dims[0], ny: dims[1], nz: dims[2], rank: tc.rank, size: tc.size}
			a.n = a.nx * a.ny * a.nz
			plane := a.nx * a.ny
			v := randVec(rng, a.n)
			lo, hi := make([]float64, plane), make([]float64, plane)
			if tc.rank > 0 {
				lo = randVec(rng, plane)
			}
			if tc.rank < tc.size-1 {
				hi = randVec(rng, plane)
			}
			got, want := make([]float64, a.n), make([]float64, a.n)
			a.spmv(got, v, lo, hi)
			a.refSpmv(want, v, lo, hi)
			sameBits(t, tc.name, got, want)
		}
	}
}

// Whole solves with the fast and the reference operator must end in the
// same signature and the same solution bits on every rank.
func TestSignatureMatchesReference(t *testing.T) {
	for _, size := range []int{1, 4} {
		p := appkit.Params{NX: 6, NY: 5, NZ: 4, MaxIter: 12}
		fast := apptest.Run(t, size, p, func() appkit.App { return New() })
		ref := apptest.Run(t, size, p, func() appkit.App { return refApp{New()} })
		sameBits(t, "signature", fast.Sigs, ref.Sigs)
		for r := range fast.Apps {
			sameBits(t, "x", fast.Apps[r].(*App).x, ref.Apps[r].(refApp).x)
		}
	}
}

func BenchmarkSpmv(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := &App{nx: 12, ny: 12, nz: 12, rank: 1, size: 3}
	a.n = a.nx * a.ny * a.nz
	v := randVec(rng, a.n)
	lo, hi := randVec(rng, a.nx*a.ny), randVec(rng, a.nx*a.ny)
	out := make([]float64, a.n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.spmv(out, v, lo, hi)
	}
}
