package appkit

import (
	"fmt"

	"match/internal/enc"
	"match/internal/mpi"
)

// Decomp3D is a 3D Cartesian domain decomposition: P processes arranged in
// a PXxPYxPZ grid, each owning a block of a global NXxNYxNZ mesh.
type Decomp3D struct {
	PX, PY, PZ int // process grid
	CX, CY, CZ int // this rank's coordinates
	NX, NY, NZ int // global mesh
	LX, LY, LZ int // local block extent
	OX, OY, OZ int // global offset of the local block
	rank, size int
}

// Factor3D splits p into the most cubic px*py*pz factorization.
func Factor3D(p int) (px, py, pz int) {
	best := [3]int{p, 1, 1}
	bestScore := p * p
	for a := 1; a*a*a <= p; a++ {
		if p%a != 0 {
			continue
		}
		q := p / a
		for b := a; b*b <= q; b++ {
			if q%b != 0 {
				continue
			}
			c := q / b
			score := (c - a) + (c - b) // prefer near-cubic
			if score < bestScore {
				bestScore = score
				best = [3]int{a, b, c}
			}
		}
	}
	return best[0], best[1], best[2]
}

// NewDecomp3D builds the decomposition for the calling rank. The global
// extents need not divide evenly; remainders go to the low-coordinate
// blocks.
func NewDecomp3D(rank, size, nx, ny, nz int) *Decomp3D {
	px, py, pz := Factor3D(size)
	d := &Decomp3D{PX: px, PY: py, PZ: pz, NX: nx, NY: ny, NZ: nz, rank: rank, size: size}
	d.CX = rank % px
	d.CY = (rank / px) % py
	d.CZ = rank / (px * py)
	split := func(n, parts, coord int) (lo, ln int) {
		base := n / parts
		rem := n % parts
		lo = coord*base + min(coord, rem)
		ln = base
		if coord < rem {
			ln++
		}
		return lo, ln
	}
	d.OX, d.LX = split(nx, px, d.CX)
	d.OY, d.LY = split(ny, py, d.CY)
	d.OZ, d.LZ = split(nz, pz, d.CZ)
	return d
}

// RankAt returns the rank at process coordinates (cx,cy,cz), or -1 when
// outside the process grid.
func (d *Decomp3D) RankAt(cx, cy, cz int) int {
	if cx < 0 || cx >= d.PX || cy < 0 || cy >= d.PY || cz < 0 || cz >= d.PZ {
		return -1
	}
	return cx + d.PX*(cy+d.PY*cz)
}

// Neighbor returns the rank offset by (dx,dy,dz) in the process grid
// (non-periodic), or -1.
func (d *Decomp3D) Neighbor(dx, dy, dz int) int {
	return d.RankAt(d.CX+dx, d.CY+dy, d.CZ+dz)
}

// NeighborWrap is Neighbor with periodic wraparound.
func (d *Decomp3D) NeighborWrap(dx, dy, dz int) int {
	wrap := func(c, p int) int { return ((c % p) + p) % p }
	return d.RankAt(wrap(d.CX+dx, d.PX), wrap(d.CY+dy, d.PY), wrap(d.CZ+dz, d.PZ))
}

// Field3D is a local scalar field with one ghost layer on each side:
// storage extents (LX+2) x (LY+2) x (LZ+2); interior indices run 1..L.
type Field3D struct {
	D          *Decomp3D
	SX, SY, SZ int // storage extents
	V          []float64
}

// NewField3D allocates a ghosted field over the decomposition.
func NewField3D(d *Decomp3D) *Field3D {
	f := &Field3D{D: d, SX: d.LX + 2, SY: d.LY + 2, SZ: d.LZ + 2}
	f.V = make([]float64, f.SX*f.SY*f.SZ)
	return f
}

// Idx converts ghosted coordinates (0..L+1 in each axis) to a flat index.
func (f *Field3D) Idx(x, y, z int) int { return x + f.SX*(y+f.SY*z) }

// At returns the value at ghosted coordinates.
func (f *Field3D) At(x, y, z int) float64 { return f.V[f.Idx(x, y, z)] }

// Set stores the value at ghosted coordinates.
func (f *Field3D) Set(x, y, z int, v float64) { f.V[f.Idx(x, y, z)] = v }

// Interior returns a copy of the interior (non-ghost) values in x-fastest
// order; used for checkpoint payloads and reductions.
func (f *Field3D) Interior() []float64 {
	out := make([]float64, f.D.LX*f.D.LY*f.D.LZ)
	i := 0
	for z := 1; z <= f.D.LZ; z++ {
		for y := 1; y <= f.D.LY; y++ {
			for x := 1; x <= f.D.LX; x++ {
				out[i] = f.At(x, y, z)
				i++
			}
		}
	}
	return out
}

// SetInterior writes interior values from a flat x-fastest slice.
func (f *Field3D) SetInterior(vals []float64) {
	i := 0
	for z := 1; z <= f.D.LZ; z++ {
		for y := 1; y <= f.D.LY; y++ {
			for x := 1; x <= f.D.LX; x++ {
				f.Set(x, y, z, vals[i])
				i++
			}
		}
	}
}

// tagHalo is the first halo exchange tag: axis ax sends toward its low
// neighbour with tagHalo+2*ax and toward its high one with tagHalo+2*ax+1.
const tagHalo = 1100

// Exchange fills the ghost layers from the six face neighbors using the
// three-phase (x, then y, then z) scheme, which also propagates edge and
// corner values — sufficient for 27-point stencils. Missing neighbors
// (non-periodic domain boundary) leave ghosts untouched.
func (f *Field3D) Exchange(ctx *Context) error {
	d := f.D
	nbrs := [3][2]int{
		{d.Neighbor(-1, 0, 0), d.Neighbor(1, 0, 0)},
		{d.Neighbor(0, -1, 0), d.Neighbor(0, 1, 0)},
		{d.Neighbor(0, 0, -1), d.Neighbor(0, 0, 1)},
	}
	lens := [3]int{d.LX, d.LY, d.LZ}
	for ax, nb := range nbrs {
		loNbr, hiNbr := nb[0], nb[1]
		tagLo := tagHalo + 2*ax
		tagHi := tagLo + 1
		// Post both sends first (eager), then receive; deadlock-free.
		if loNbr >= 0 {
			if err := mpi.Send(ctx.R, ctx.World, loNbr, tagLo, f.packPlane(ax, 1)); err != nil {
				return err
			}
		}
		if hiNbr >= 0 {
			if err := mpi.Send(ctx.R, ctx.World, hiNbr, tagHi, f.packPlane(ax, lens[ax])); err != nil {
				return err
			}
		}
		if loNbr >= 0 {
			m, err := mpi.Recv(ctx.R, ctx.World, loNbr, tagHi)
			if err != nil {
				return err
			}
			f.fillPlane(ax, 0, m.Data)
		}
		if hiNbr >= 0 {
			m, err := mpi.Recv(ctx.R, ctx.World, hiNbr, tagLo)
			if err != nil {
				return err
			}
			f.fillPlane(ax, lens[ax]+1, m.Data)
		}
	}
	return nil
}

// planeIndex returns the storage layout of the full (ghosts included)
// plane at coordinate c of axis ax: the flat index of its first value, and
// the extent and stride of its inner and outer axes, the other two axes
// in x, y, z order.
func (f *Field3D) planeIndex(ax, c int) (base, nIn, sIn, nOut, sOut int) {
	ext := [3]int{f.SX, f.SY, f.SZ}
	stride := [3]int{1, f.SX, f.SX * f.SY}
	in, out := (ax+1)%3, (ax+2)%3
	if in > out {
		in, out = out, in
	}
	return c * stride[ax], ext[in], stride[in], ext[out], stride[out]
}

// packPlane encodes the plane at coordinate c of axis ax.
func (f *Field3D) packPlane(ax, c int) []byte {
	base, nIn, sIn, nOut, sOut := f.planeIndex(ax, c)
	b := make([]byte, 0, 8*nIn*nOut)
	for o := 0; o < nOut; o++ {
		for i := 0; i < nIn; i++ {
			b = enc.AppendFloat64(b, f.V[base+o*sOut+i*sIn])
		}
	}
	return b
}

// fillPlane decodes a packed plane into coordinate c of axis ax.
func (f *Field3D) fillPlane(ax, c int, b []byte) {
	base, nIn, sIn, nOut, sOut := f.planeIndex(ax, c)
	for o := 0; o < nOut; o++ {
		for i := 0; i < nIn; i++ {
			f.V[base+o*sOut+i*sIn] = enc.Float64(b)
			b = b[8:]
		}
	}
}

// String describes the decomposition (diagnostics).
func (d *Decomp3D) String() string {
	return fmt.Sprintf("decomp %dx%dx%d procs, local %dx%dx%d at (%d,%d,%d)",
		d.PX, d.PY, d.PZ, d.LX, d.LY, d.LZ, d.OX, d.OY, d.OZ)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
