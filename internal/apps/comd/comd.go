// Package comd reproduces the CoMD proxy application: classical molecular
// dynamics with a Lennard-Jones potential on an FCC lattice in a periodic
// box, 3D spatial decomposition, per-step ghost-atom exchange, and atom
// migration between ranks as particles move. The integrator is the
// symplectic kick-drift form, which keeps the checkpointable state to
// positions and velocities only (forces are recomputed), exactly what the
// paper's data-object analysis selects for checkpointing.
package comd

import (
	"fmt"
	"math"
	"sync"

	"match/internal/apps/appkit"
	"match/internal/enc"
	"match/internal/fti"
	"match/internal/mpi"
)

// Model constants (reduced LJ units).
const (
	lat     = 1.5874 // FCC lattice parameter
	cutoff  = 1.45   // LJ cutoff: first-neighbor shell
	dt      = 0.004  // timestep
	epsilon = 1.0
	sigma   = 1.0
)

// App is the CoMD state for one rank.
type App struct {
	d          *appkit.Decomp3D // decomposition of the cell grid
	glob       [3]float64       // global box edge lengths
	lo, hi     [3]float64       // local box bounds
	x, y, z    []float64        // positions (protected)
	vx, vy, vz []float64        // velocities (protected)
	fx, fy, fz []float64        // forces (recomputed)
	gx, gy, gz []float64        // ghost positions

	pe, ke float64
	energy float64 // last total energy (protected)
}

// New returns a CoMD instance.
func New() *App { return &App{} }

// Name implements appkit.App.
func (a *App) Name() string { return "CoMD" }

// hash64 is a deterministic mixer for initial velocities.
func hash64(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
	return v
}

// Init implements appkit.App: place FCC atoms in the local box.
func (a *App) Init(ctx *appkit.Context) error {
	p := ctx.Params
	if p.NX <= 0 {
		return fmt.Errorf("comd: bad lattice %dx%dx%d", p.NX, p.NY, p.NZ)
	}
	a.d = appkit.NewDecomp3D(ctx.Rank(), ctx.Size(), p.NX, p.NY, p.NZ)
	a.glob = [3]float64{float64(p.NX) * lat, float64(p.NY) * lat, float64(p.NZ) * lat}
	a.lo = [3]float64{float64(a.d.OX) * lat, float64(a.d.OY) * lat, float64(a.d.OZ) * lat}
	a.hi = [3]float64{float64(a.d.OX+a.d.LX) * lat, float64(a.d.OY+a.d.LY) * lat, float64(a.d.OZ+a.d.LZ) * lat}

	basis := [4][3]float64{{0, 0, 0}, {0.5, 0.5, 0}, {0.5, 0, 0.5}, {0, 0.5, 0.5}}
	a.x, a.y, a.z = nil, nil, nil
	a.vx, a.vy, a.vz = nil, nil, nil
	for cz := a.d.OZ; cz < a.d.OZ+a.d.LZ; cz++ {
		for cy := a.d.OY; cy < a.d.OY+a.d.LY; cy++ {
			for cx := a.d.OX; cx < a.d.OX+a.d.LX; cx++ {
				for b, off := range basis {
					px := (float64(cx) + off[0]) * lat
					py := (float64(cy) + off[1]) * lat
					pz := (float64(cz) + off[2]) * lat
					id := uint64(((cz*p.NY+cy)*p.NX+cx)*4 + b)
					h := hash64(id ^ uint64(p.Seed))
					// Small deterministic thermal velocities.
					sv := func(bits uint64) float64 {
						return (float64(bits&0xffff)/65535 - 0.5) * 0.2
					}
					a.x = append(a.x, px)
					a.y = append(a.y, py)
					a.z = append(a.z, pz)
					a.vx = append(a.vx, sv(h))
					a.vy = append(a.vy, sv(h>>16))
					a.vz = append(a.vz, sv(h>>32))
				}
			}
		}
	}
	ctx.FTI.Protect(1, fti.F64s{P: &a.x})
	ctx.FTI.Protect(2, fti.F64s{P: &a.y})
	ctx.FTI.Protect(3, fti.F64s{P: &a.z})
	ctx.FTI.Protect(4, fti.F64s{P: &a.vx})
	ctx.FTI.Protect(5, fti.F64s{P: &a.vy})
	ctx.FTI.Protect(6, fti.F64s{P: &a.vz})
	ctx.FTI.Protect(7, fti.F64{P: &a.energy})
	return nil
}

const (
	tagGhostLo = 3100 + iota
	tagGhostHi
	tagMigLo
	tagMigHi
)

// axisVals returns pointers to the coordinate slices for an axis.
func (a *App) axisVals(ax int) []float64 {
	switch ax {
	case 0:
		return a.x
	case 1:
		return a.y
	default:
		return a.z
	}
}

// exchangeGhosts rebuilds ghost positions from the six neighbors with the
// three-phase scheme; coordinates crossing the periodic boundary are
// shifted so receivers see continuous positions. Payloads are packed
// (x, y, z) float64 triples.
func (a *App) exchangeGhosts(ctx *appkit.Context) error {
	a.gx, a.gy, a.gz = a.gx[:0], a.gy[:0], a.gz[:0]
	dims := [3][3]int{{-1, 0, 0}, {0, -1, 0}, {0, 0, -1}}
	for ax := 0; ax < 3; ax++ {
		loNbr := a.d.NeighborWrap(dims[ax][0], dims[ax][1], dims[ax][2])
		hiNbr := a.d.NeighborWrap(-dims[ax][0], -dims[ax][1], -dims[ax][2])
		if loNbr == ctx.Rank() && hiNbr == ctx.Rank() {
			continue // single rank in this axis: minimum image handles it
		}
		loPayload := a.border(ax, true)
		hiPayload := a.border(ax, false)
		if err := mpi.Send(ctx.R, ctx.World, loNbr, tagGhostLo, loPayload); err != nil {
			return err
		}
		if err := mpi.Send(ctx.R, ctx.World, hiNbr, tagGhostHi, hiPayload); err != nil {
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
		for _, b := range [2][]byte{ml.Data, mh.Data} {
			for ; len(b) >= 24; b = b[24:] {
				a.gx = append(a.gx, enc.Float64(b))
				a.gy = append(a.gy, enc.Float64(b[8:]))
				a.gz = append(a.gz, enc.Float64(b[16:]))
			}
		}
	}
	return nil
}

// border packs the locals plus already-received ghosts within cutoff of
// the low (lo) or high face of axis ax, shifted across the periodic
// boundary when that face is the global box's.
func (a *App) border(ax int, lo bool) []byte {
	shift := 0.0
	if lo && a.loEdge(ax) {
		shift = a.glob[ax]
	} else if !lo && a.hiEdge(ax) {
		shift = -a.glob[ax]
	}
	in := func(c float64) bool {
		if lo {
			return c < a.lo[ax]+cutoff
		}
		return c >= a.hi[ax]-cutoff
	}
	vals, gvals := a.axisVals(ax), a.ghostAxis(ax)
	count := 0
	for _, c := range vals {
		if in(c) {
			count++
		}
	}
	for _, c := range gvals {
		if in(c) {
			count++
		}
	}
	out := make([]byte, 0, 24*count)
	for i, c := range vals {
		if in(c) {
			out = appendShifted(out, a.x[i], a.y[i], a.z[i], ax, shift)
		}
	}
	for i, c := range gvals {
		if in(c) {
			out = appendShifted(out, a.gx[i], a.gy[i], a.gz[i], ax, shift)
		}
	}
	return out
}

func (a *App) loEdge(ax int) bool {
	switch ax {
	case 0:
		return a.d.CX == 0
	case 1:
		return a.d.CY == 0
	default:
		return a.d.CZ == 0
	}
}

func (a *App) hiEdge(ax int) bool {
	switch ax {
	case 0:
		return a.d.CX == a.d.PX-1
	case 1:
		return a.d.CY == a.d.PY-1
	default:
		return a.d.CZ == a.d.PZ-1
	}
}

// appendShifted packs one ghost position, shifted by shift along ax.
func appendShifted(out []byte, px, py, pz float64, ax int, shift float64) []byte {
	switch ax {
	case 0:
		px += shift
	case 1:
		py += shift
	default:
		pz += shift
	}
	out = enc.AppendFloat64(out, px)
	out = enc.AppendFloat64(out, py)
	return enc.AppendFloat64(out, pz)
}

func (a *App) ghostAxis(ax int) []float64 {
	switch ax {
	case 0:
		return a.gx
	case 1:
		return a.gy
	default:
		return a.gz
	}
}

// forceScratch is the per-call working set of forces: a cell list over
// the locals and the ghosts, with their positions copied in cell order,
// one atom's accepted pairs, and the queued energy terms. It lives in
// forcePool rather than on the App; forces never yields to the scheduler
// between Get and Put, so the pool holds about one per worker thread
// instead of one per simulated rank.
type forceScratch struct {
	bin        [3][]int32 // each atom's bin per axis
	wx         []float64  // each atom's x wrapped into the box
	slot       [2][]int32 // y and z bin -> occupied-bin index, or -1
	cell       []int32    // each atom's cell
	start      []int32    // offsets of each cell in the sorted arrays
	next       []int32    // each cell's fill position
	sw         []float64  // wrapped x in cell order, ascending within a cell
	sx, sy, sz []float64  // positions in cell order
	sj         []int32    // atom index (locals, then ghosts) in cell order
	acc        []pair     // the current atom's accepted pairs
	keys       []uint64   // their j and position, in j order
	half       []float64  // e/2 of pairs found from their lower local
	link       []int32    // the next entry of half with the same owner
	head, tail []int32    // each local atom's first and last entry of half
}

// pair is one pair that passed the cutoff test.
type pair struct {
	j              int32
	dx, dy, dz, r2 float64
}

var forcePool sync.Pool

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reach is cutoff padded by far more than the rounding in the wrap, the
// bin edges and the displacement, so no bin or window cut at reach can
// drop a pair the cutoff test accepts.
const reach = cutoff * (1 + 1e-9)

// binsPerAxis returns how many bins of edge at least reach tile a
// periodic axis of length L. With fewer than three bins the cyclic
// neighbours -1, 0, +1 of a bin would repeat, so such an axis gets one.
func binsPerAxis(L float64) int {
	nb := int(L / reach)
	if nb < 3 {
		return 1
	}
	return nb
}

// wrap maps c into the periodic box [0, L) (up to rounding at L).
func wrap(c, L float64) float64 {
	if c < 0 || c >= L {
		c -= L * math.Floor(c/L)
	}
	return c
}

// nearBins lists the occupied bins at offsets -1, 0, +1 from bin b of nb
// (width h) on one axis, with the squared distance from w to each.
func nearBins(w float64, b, nb int, h float64, slot []int32) (idx [3]int32, gap2 [3]float64, n int) {
	if nb == 1 {
		return idx, gap2, 1
	}
	for d := -1; d <= 1; d++ {
		c := b + d
		if c < 0 {
			c += nb
		} else if c >= nb {
			c -= nb
		}
		if slot[c] < 0 {
			continue
		}
		g := 0.0
		if d < 0 {
			g = w - float64(b)*h
		} else if d > 0 {
			g = float64(b+1)*h - w
		}
		idx[n], gap2[n] = slot[c], g*g
		n++
	}
	return idx, gap2, n
}

// forces computes LJ forces and potential energy; ghosts must be current.
//
// It performs exactly the floating-point operations of the all-pairs
// loop, in the same order: for each local atom i, every other local then
// every ghost j with the minimum-image displacement, the pairs accepted
// by r2 < rc2, r2 != 0 accumulated into fx/fy/fz[i] and pe in j order.
// Only the candidates change:
//   - Atoms are binned over the global periodic box with bin edges of at
//     least cutoff, so every pair the minimum-image test can accept lies
//     in cyclically adjacent bins. Neighbour rows beyond the cutoff are
//     skipped, and so are the atoms of a row, sorted by x, outside a
//     window of the cutoff.
//   - A local pair is tested once, from its lower atom. Seen from the
//     higher atom the displacement is the exact negation, so f and e are
//     the same: its force terms are added at once (every lower atom is
//     done before the higher one starts), and its energy term waits in a
//     queue for the higher atom's turn.
//   - Each atom's accepted pairs are insertion-sorted back into j order
//     before they are summed.
func (a *App) forces() {
	n := len(a.x)
	a.fx, a.fy, a.fz = resize(a.fx, n), resize(a.fy, n), resize(a.fz, n)
	for i := 0; i < n; i++ {
		a.fx[i], a.fy[i], a.fz[i] = 0, 0, 0
	}
	a.pe = 0
	rc2 := cutoff * cutoff
	// Shifted potential so e(cutoff)=0.
	s6 := math.Pow(sigma/cutoff, 6)
	eShift := 4 * epsilon * (s6*s6 - s6)

	sc, _ := forcePool.Get().(*forceScratch)
	if sc == nil {
		sc = new(forceScratch)
	}
	all := n + len(a.gx)
	Lx, Ly, Lz := a.glob[0], a.glob[1], a.glob[2]

	// Bin every atom per axis. Cells run over every x bin, and over the
	// occupied y and z bins only, so the grid spans the region this rank
	// sees while the x neighbours of a cell stay adjacent in the sorted
	// arrays.
	var nb [3]int
	var h [3]float64
	sc.wx = resize(sc.wx, all)
	for ax, pos := range [3][2][]float64{{a.x, a.gx}, {a.y, a.gy}, {a.z, a.gz}} {
		L := a.glob[ax]
		nb[ax] = binsPerAxis(L)
		h[ax] = L / float64(nb[ax])
		bins := resize(sc.bin[ax], all)
		scale := float64(nb[ax]) / L
		for part, cs := range pos {
			for j, c := range cs {
				w := wrap(c, L)
				if ax == 0 {
					sc.wx[part*n+j] = w
				}
				bins[part*n+j] = int32(min(max(int(w*scale), 0), nb[ax]-1))
			}
		}
		sc.bin[ax] = bins
	}
	var occ [2]int32
	for k := range occ {
		slot := resize(sc.slot[k], nb[k+1])
		for b := range slot {
			slot[b] = -1
		}
		for _, b := range sc.bin[k+1] {
			slot[b] = 0
		}
		for b := range slot {
			if slot[b] == 0 {
				slot[b] = occ[k]
				occ[k]++
			}
		}
		sc.slot[k] = slot
	}
	nbx := int32(nb[0])
	cells := nbx * occ[0] * occ[1]
	sc.cell = resize(sc.cell, all)
	sc.start = resize(sc.start, int(cells)+1)
	clear(sc.start)
	for j := 0; j < all; j++ {
		c := sc.bin[0][j] + nbx*(sc.slot[0][sc.bin[1][j]]+occ[0]*sc.slot[1][sc.bin[2][j]])
		sc.cell[j] = c
		sc.start[c+1]++
	}
	for c := int32(0); c < cells; c++ {
		sc.start[c+1] += sc.start[c]
	}
	sc.next = append(sc.next[:0], sc.start[:cells]...)
	sw := resize(sc.sw, all)
	sx, sy, sz := resize(sc.sx, all), resize(sc.sy, all), resize(sc.sz, all)
	sj := resize(sc.sj, all)
	for j := 0; j < all; j++ {
		c := sc.cell[j]
		k := sc.next[c]
		sc.next[c]++
		// Insertion-sort the cell by wrapped x as it fills.
		for ; k > sc.start[c] && sw[k-1] > sc.wx[j]; k-- {
			sw[k], sx[k], sy[k], sz[k], sj[k] = sw[k-1], sx[k-1], sy[k-1], sz[k-1], sj[k-1]
		}
		sw[k], sj[k] = sc.wx[j], int32(j)
		if j < n {
			sx[k], sy[k], sz[k] = a.x[j], a.y[j], a.z[j]
		} else {
			sx[k], sy[k], sz[k] = a.gx[j-n], a.gy[j-n], a.gz[j-n]
		}
	}
	sc.sw, sc.sx, sc.sy, sc.sz, sc.sj = sw, sx, sy, sz, sj

	lim := reach * reach
	sc.head, sc.tail = resize(sc.head, n), resize(sc.tail, n)
	for i := range sc.head {
		sc.head[i], sc.tail[i] = -1, -1
	}
	sc.half, sc.link = sc.half[:0], sc.link[:0]
	for i := 0; i < n; i++ {
		xi, yi, zi, wxi := a.x[i], a.y[i], a.z[i], sc.wx[i]
		self := int32(i)
		acc := sc.acc[:0]
		bx := int(sc.bin[0][i])
		ny, gy2, nny := nearBins(wrap(yi, Ly), int(sc.bin[1][i]), nb[1], h[1], sc.slot[0])
		nz, gz2, nnz := nearBins(wrap(zi, Lz), int(sc.bin[2][i]), nb[2], h[2], sc.slot[1])
		for zk := 0; zk < nnz; zk++ {
			for yk := 0; yk < nny; yk++ {
				if gz2[zk]+gy2[yk] > lim {
					continue
				}
				// Away from the periodic seam the three x neighbours are
				// one run of cells sorted by wrapped x, of which only a
				// window is within reach; across it they are two runs.
				row := nbx * (ny[yk] + occ[0]*nz[zk])
				var runs [2][2]int32
				nruns := 1
				switch {
				case nbx == 1:
					runs[0] = [2]int32{sc.start[row], sc.start[row+1]}
				case bx == 0:
					runs[0] = [2]int32{sc.start[row+nbx-1], sc.start[row+nbx]}
					runs[1] = [2]int32{sc.start[row], sc.start[row+2]}
					nruns = 2
				case bx == nb[0]-1:
					runs[0] = [2]int32{sc.start[row+nbx-2], sc.start[row+nbx]}
					runs[1] = [2]int32{sc.start[row], sc.start[row+1]}
					nruns = 2
				default:
					lo, hi := sc.start[row+int32(bx)-1], sc.start[row+int32(bx)+2]
					for lo < hi && sw[lo] < wxi-reach {
						lo++
					}
					for hi > lo && sw[hi-1] > wxi+reach {
						hi--
					}
					runs[0] = [2]int32{lo, hi}
				}
				for r := 0; r < nruns; r++ {
					for k := runs[r][0]; k < runs[r][1]; k++ {
						if sj[k] <= self {
							continue // i itself, or a local pair found from j's side
						}
						dx := xi - sx[k]
						if dx > Lx/2 {
							dx -= Lx
						} else if dx < -Lx/2 {
							dx += Lx
						}
						dy := yi - sy[k]
						if dy > Ly/2 {
							dy -= Ly
						} else if dy < -Ly/2 {
							dy += Ly
						}
						dz := zi - sz[k]
						if dz > Lz/2 {
							dz -= Lz
						} else if dz < -Lz/2 {
							dz += Lz
						}
						r2 := dx*dx + dy*dy + dz*dz
						if r2 >= rc2 || r2 == 0 {
							continue
						}
						acc = append(acc, pair{j: sj[k], dx: dx, dy: dy, dz: dz, r2: r2})
					}
				}
			}
		}
		// Back into j order, then sum as the all-pairs loop did. The
		// sort moves keys of j and position rather than whole pairs.
		keys := sc.keys[:0]
		for q, p := range acc {
			key := uint64(p.j)<<32 | uint64(q)
			r := len(keys)
			keys = append(keys, key)
			for ; r > 0 && keys[r-1] > key; r-- {
				keys[r] = keys[r-1]
			}
			keys[r] = key
		}
		sc.keys = keys
		// The energies of i's pairs with lower locals came first.
		for q := sc.head[i]; q >= 0; q = sc.link[q] {
			a.pe += sc.half[q]
		}
		for _, key := range keys {
			p := &acc[uint32(key)]
			dx, dy, dz, r2 := p.dx, p.dy, p.dz, p.r2
			inv2 := sigma * sigma / r2
			inv6 := inv2 * inv2 * inv2
			f := 24 * epsilon * inv6 * (2*inv6 - 1) / r2
			a.fx[i] += f * dx
			a.fy[i] += f * dy
			a.fz[i] += f * dz
			e := 4*epsilon*inv6*(inv6-1) - eShift
			a.pe += e / 2
			if j := p.j; j < int32(n) {
				// The same pair seen from local j: displacement -dx,
				// -dy, -dz bit for bit, so the same f and e. Its force
				// terms land in j order, as every lower atom is done
				// before j; its energy waits for j's turn.
				a.fx[j] += f * -dx
				a.fy[j] += f * -dy
				a.fz[j] += f * -dz
				q := int32(len(sc.half))
				sc.half = append(sc.half, e/2)
				sc.link = append(sc.link, -1)
				if sc.tail[j] < 0 {
					sc.head[j] = q
				} else {
					sc.link[sc.tail[j]] = q
				}
				sc.tail[j] = q
			}
		}
		sc.acc = acc
	}
	forcePool.Put(sc)
}

// migrate moves atoms that left the local box to the owning neighbor,
// three-phase, with periodic wrapping. Payloads are packed (x, y, z, vx,
// vy, vz) float64 records; the atoms that stay are compacted in place.
func (a *App) migrate(ctx *appkit.Context) error {
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
		var loOut, hiOut []byte
		kept := 0
		for i := range a.x {
			c := vals[i]
			switch {
			case c < a.lo[ax]:
				p := [3]float64{a.x[i], a.y[i], a.z[i]}
				if a.loEdge(ax) {
					p[ax] += a.glob[ax]
				}
				loOut = appendAtom(loOut, p, a.vx[i], a.vy[i], a.vz[i])
			case c >= a.hi[ax]:
				p := [3]float64{a.x[i], a.y[i], a.z[i]}
				if a.hiEdge(ax) {
					p[ax] -= a.glob[ax]
				}
				hiOut = appendAtom(hiOut, p, a.vx[i], a.vy[i], a.vz[i])
			default:
				a.x[kept], a.y[kept], a.z[kept] = a.x[i], a.y[i], a.z[i]
				a.vx[kept], a.vy[kept], a.vz[kept] = a.vx[i], a.vy[i], a.vz[i]
				kept++
			}
		}
		a.x, a.y, a.z = a.x[:kept], a.y[:kept], a.z[:kept]
		a.vx, a.vy, a.vz = a.vx[:kept], a.vy[:kept], a.vz[:kept]
		if err := mpi.Send(ctx.R, ctx.World, loNbr, tagMigLo, loOut); err != nil {
			return err
		}
		if err := mpi.Send(ctx.R, ctx.World, hiNbr, tagMigHi, hiOut); err != nil {
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
		for _, b := range [2][]byte{ml.Data, mh.Data} {
			for ; len(b) >= 48; b = b[48:] {
				a.x = append(a.x, enc.Float64(b))
				a.y = append(a.y, enc.Float64(b[8:]))
				a.z = append(a.z, enc.Float64(b[16:]))
				a.vx = append(a.vx, enc.Float64(b[24:]))
				a.vy = append(a.vy, enc.Float64(b[32:]))
				a.vz = append(a.vz, enc.Float64(b[40:]))
			}
		}
	}
	return nil
}

// appendAtom packs one migrating atom's position and velocity.
func appendAtom(out []byte, p [3]float64, vx, vy, vz float64) []byte {
	for _, v := range [6]float64{p[0], p[1], p[2], vx, vy, vz} {
		out = enc.AppendFloat64(out, v)
	}
	return out
}

// Step implements appkit.App: one kick-drift MD step plus the global
// energy reduction CoMD reports every iteration.
func (a *App) Step(ctx *appkit.Context, iter int) error {
	if err := a.exchangeGhosts(ctx); err != nil {
		return err
	}
	n := len(a.x)
	a.forces()
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
	if err := a.migrate(ctx); err != nil {
		return err
	}
	e, err := appkit.SumAll(ctx, a.ke+a.pe)
	if err != nil {
		return err
	}
	a.energy = e
	return nil
}

// Signature implements appkit.App: total energy plus global atom count
// (conservation check built in).
func (a *App) Signature(ctx *appkit.Context) (float64, error) {
	count, err := appkit.SumAll(ctx, float64(len(a.x)))
	if err != nil {
		return 0, err
	}
	return a.energy + count, nil
}

// Energy returns the last total system energy.
func (a *App) Energy() float64 { return a.energy }
