package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"match"
	"match/internal/apps"
	"match/internal/apps/appkit"
	"match/internal/ckpt"
	"match/internal/core"
	"match/internal/fti"
	"match/internal/mpi"
	"match/internal/simnet"
	"match/internal/storage"
	"match/internal/store"
)

// Layer probes time calls into one layer's exported functions, away from
// any campaign, and check each call's result. Each runs probeReps times
// and reports the median.
const probeReps = 5

type probe struct {
	name, unit string
	unitNS     float64
	run        func() ([]float64, error) // per-call host times, ns
}

func probes(e *env) []probe {
	return []probe{
		{"simnet.dispatch_ns", "ns", 1, func() ([]float64, error) { return probeDispatch(64, 200) }},
		{"simnet.event_ns", "ns", 1, func() ([]float64, error) { return probeEvents(20000) }},
		{"mpi.send_ns", "ns", 1, func() ([]float64, error) { return probeRing(64, 50) }},
		{"mpi.allreduce64_us", "us", 1e3, func() ([]float64, error) { return probeAllreduce(64, 20) }},
		{"mpi.sparse_exchange_us", "us", 1e3, func() ([]float64, error) { return probeSparse(128, 10) }},
		{"fti.ckpt_l1_us", "us", 1e3, func() ([]float64, error) { return probeCkpt(fti.L1) }},
		{"fti.ckpt_l4_us", "us", 1e3, func() ([]float64, error) { return probeCkpt(fti.L4) }},
		{"fti.recover_us", "us", 1e3, probeRecover},
		{"core.cellkey_us", "us", 1e3, func() ([]float64, error) { return probeCellKey(e.seed) }},
		{"core.request_hash_us", "us", 1e3, func() ([]float64, error) { return probeRequestHash(e.seed) }},
		{"store.get_us", "us", 1e3, probeStoreGet},
		{"store.get_disk_us", "us", 1e3, func() ([]float64, error) { return probeStoreGetDisk(e) }},
		{"store.put_us", "us", 1e3, func() ([]float64, error) { return probeStorePut(e) }},
		{"apps.hpccg.step_us", "us", 1e3, func() ([]float64, error) { return probeStep("HPCCG") }},
		{"apps.lulesh.step_us", "us", 1e3, func() ([]float64, error) { return probeStep("LULESH") }},
	}
}

// runProbes runs every layer probe, recording one span per probe call
// batch, plus the matchserve per-call probe.
func runProbes(e *env, rep *report) error {
	for _, p := range probes(e) {
		var meds []float64
		for i := 0; i < probeReps; i++ {
			start := time.Now()
			ds, err := p.run()
			e.spans.add("probe "+p.name, rootSpan, start, time.Now())
			if err != nil {
				rep.problem("probe %s: %v", p.name, err)
				break
			}
			meds = append(meds, median(ds)/p.unitNS)
		}
		rep.layer[p.name] = metric{median(meds), p.unit}
	}
	submit, results, err := probeServe(e)
	if err != nil {
		return fmt.Errorf("probe serve: %w", err)
	}
	rep.layer["serve.submit_ms"] = metric{submit, "ms"}
	rep.layer["serve.results_ms"] = metric{results, "ms"}
	return nil
}

// perCall splits one timed batch of n calls evenly.
func perCall(d time.Duration, n int) []float64 {
	return []float64{float64(d) / float64(n)}
}

// nanos records one call's host time.
func nanos(xs *[]float64, start time.Time) {
	*xs = append(*xs, float64(time.Since(start)))
}

// probeDispatch times Proc.Sleep(0) round trips: n processes each yield
// rounds times, every yield one dispatch through the scheduler.
func probeDispatch(n, rounds int) ([]float64, error) {
	c := simnet.NewCluster(simnet.Config{Nodes: 4})
	yields := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		c.StartProc(i%4, 0, func(p *simnet.Proc) {
			for r := 0; r < rounds; r++ {
				p.Sleep(0)
				yields[i]++
			}
		})
	}
	start := time.Now()
	end := c.Run()
	d := time.Since(start)
	for i, p := range c.Procs() {
		if !p.Exited() || yields[i] != rounds {
			return nil, fmt.Errorf("process %d yielded %d of %d times", i, yields[i], rounds)
		}
	}
	if end != 0 {
		return nil, fmt.Errorf("zero-length sleeps advanced virtual time to %v", end)
	}
	return perCall(d, n*rounds), nil
}

// probeEvents times scheduler events with no processes: a chain of n
// AfterFunc events, each scheduling the next one nanosecond later.
func probeEvents(n int) ([]float64, error) {
	s := simnet.NewScheduler()
	fired := 0
	var step func(any, int64)
	step = func(_ any, left int64) {
		fired++
		if left > 1 {
			s.AfterFunc(1, step, nil, left-1)
		}
	}
	s.AfterFunc(1, step, nil, int64(n))
	start := time.Now()
	end := s.Run()
	d := time.Since(start)
	if fired != n || end != simnet.Time(n) {
		return nil, fmt.Errorf("fired %d of %d events, clock %v", fired, n, end)
	}
	return perCall(d, n), nil
}

// runRanks launches an n-rank job, runs it and reports the first error a
// rank recorded or any rank that did not exit.
func runRanks(n, nodes int, body func(r *mpi.Rank, me int) error) (time.Duration, error) {
	c := simnet.NewCluster(simnet.Config{Nodes: nodes})
	errs := make([]error, n)
	j := mpi.Launch(c, n, 0, func(r *mpi.Rank) {
		me := r.Rank(r.Job().World())
		errs[me] = body(r, me)
	})
	start := time.Now()
	c.Run()
	d := time.Since(start)
	for i, p := range j.World().Members() {
		if !p.SimProc().Exited() {
			return d, fmt.Errorf("rank %d did not exit", i)
		}
	}
	return d, errors.Join(errs...)
}

// probeRing times point-to-point sends: every rank sends to its right
// neighbour and receives from its left, rounds times, checking payloads.
func probeRing(n, rounds int) ([]float64, error) {
	d, err := runRanks(n, 16, func(r *mpi.Rank, me int) error {
		w := r.Job().World()
		left := (me - 1 + n) % n
		for round := 0; round < rounds; round++ {
			buf := make([]byte, 16)
			binary.LittleEndian.PutUint64(buf, uint64(me))
			binary.LittleEndian.PutUint64(buf[8:], uint64(round))
			if err := mpi.Send(r, w, (me+1)%n, round, buf); err != nil {
				return err
			}
			m, err := mpi.Recv(r, w, left, round)
			if err != nil {
				return err
			}
			if len(m.Data) != 16 || binary.LittleEndian.Uint64(m.Data) != uint64(left) ||
				binary.LittleEndian.Uint64(m.Data[8:]) != uint64(round) {
				return fmt.Errorf("rank %d round %d: bad payload %x", me, round, m.Data)
			}
		}
		return nil
	})
	return perCall(d, n*rounds), err
}

// probeAllreduce times summed scalar allreduces over n ranks.
func probeAllreduce(n, rounds int) ([]float64, error) {
	d, err := runRanks(n, 16, func(r *mpi.Rank, me int) error {
		w := r.Job().World()
		for round := 0; round < rounds; round++ {
			got, err := mpi.AllreduceI64Scalar(r, w, int64(me+round), mpi.OpSum)
			if err != nil {
				return err
			}
			if want := int64(n*(n-1)/2 + n*round); got != want {
				return fmt.Errorf("rank %d: allreduce %d, want %d", me, got, want)
			}
		}
		return nil
	})
	return perCall(d, rounds), err
}

// probeSparse times SparseExchangeI64 over n ranks, each sending to two
// neighbours at distances 1 and 5, checking every received payload.
func probeSparse(n, rounds int) ([]float64, error) {
	d, err := runRanks(n, 16, func(r *mpi.Rank, me int) error {
		w := r.Job().World()
		for round := 0; round < rounds; round++ {
			send := map[int][]int64{
				(me + 1) % n: {int64(me), int64(round)},
				(me + 5) % n: {int64(me), int64(round), 5},
			}
			got, err := mpi.SparseExchangeI64(r, w, send)
			if err != nil {
				return err
			}
			a, b := got[(me-1+n)%n], got[(me-5+n)%n]
			if len(got) != 2 || len(a) != 2 || a[0] != int64((me-1+n)%n) || a[1] != int64(round) ||
				len(b) != 3 || b[0] != int64((me-5+n)%n) || b[2] != 5 {
				return fmt.Errorf("rank %d round %d: received %v", me, round, got)
			}
		}
		return nil
	})
	return perCall(d, rounds), err
}

// ckptRanks and ckptFloats size the FTI probes' protected set: four
// vectors of HPCCG's Small local grid (12^3 points) on each of 4 ranks.
const (
	ckptRanks  = 4
	ckptFloats = 4 * 12 * 12 * 12
	ckptCalls  = 6
)

func protectedData(me int) []float64 {
	data := make([]float64, ckptFloats)
	for i := range data {
		data[i] = float64(me*ckptFloats+i) * 0.5
	}
	return data
}

// probeCkpt times CheckpointAt at one level, as seen by rank 0 (the ranks
// commit collectively), and checks the checkpoint restores the data.
func probeCkpt(level fti.Level) ([]float64, error) {
	var calls []float64
	c := simnet.NewCluster(simnet.Config{Nodes: ckptRanks})
	st := storage.New(c, storage.Config{})
	errs := make([]error, ckptRanks)
	mpi.Launch(c, ckptRanks, 0, func(r *mpi.Rank) {
		w := r.Job().World()
		me := r.Rank(w)
		cfg := fti.Config{Level: level, ExecID: "probe-ckpt", GroupSize: ckptRanks}
		f, err := fti.Init(cfg, r, w, st)
		if err != nil {
			errs[me] = err
			return
		}
		data := protectedData(me)
		f.Protect(1, fti.F64s{P: &data})
		for i := 1; i <= ckptCalls; i++ {
			data[i] += 1 // a changing state, as between real checkpoints
			start := time.Now()
			if err := f.CheckpointAt(int64(i), level); err != nil {
				errs[me] = err
				return
			}
			if me == 0 {
				nanos(&calls, start)
			}
		}
		errs[me] = restoreCheck(cfg, r, w, st, data)
	})
	c.Run()
	return calls, errors.Join(errs...)
}

// restoreCheck re-initializes FTI as a restarted rank would, recovers the
// protected vector and compares it byte for byte with want.
func restoreCheck(cfg fti.Config, r *mpi.Rank, w *mpi.Comm, st *storage.System, want []float64) error {
	f, err := fti.Init(cfg, r, w, st)
	if err != nil {
		return err
	}
	var got []float64
	f.Protect(1, fti.F64s{P: &got})
	if err := f.Recover(); err != nil {
		return err
	}
	if !bytes.Equal((fti.F64s{P: &got}).Snapshot(), (fti.F64s{P: &want}).Snapshot()) {
		return fmt.Errorf("rank %d: restored checkpoint differs from the protected data", r.Rank(w))
	}
	return nil
}

// probeRecover times Init plus Recover after one L1 checkpoint, as seen
// by rank 0, checking the restored bytes.
func probeRecover() ([]float64, error) {
	var calls []float64
	c := simnet.NewCluster(simnet.Config{Nodes: ckptRanks})
	st := storage.New(c, storage.Config{})
	errs := make([]error, ckptRanks)
	mpi.Launch(c, ckptRanks, 0, func(r *mpi.Rank) {
		w := r.Job().World()
		me := r.Rank(w)
		cfg := fti.Config{Level: fti.L1, ExecID: "probe-recover", GroupSize: ckptRanks}
		f, err := fti.Init(cfg, r, w, st)
		if err != nil {
			errs[me] = err
			return
		}
		data := protectedData(me)
		f.Protect(1, fti.F64s{P: &data})
		if err := f.CheckpointAt(1, fti.L1); err != nil {
			errs[me] = err
			return
		}
		for i := 0; i < ckptCalls && errs[me] == nil; i++ {
			start := time.Now()
			errs[me] = restoreCheck(cfg, r, w, st, data)
			if me == 0 {
				nanos(&calls, start)
			}
		}
	})
	c.Run()
	return calls, errors.Join(errs...)
}

// probeCellKey times CellKey over sweep-kernels' cells, checking keys are
// stable and distinct.
func probeCellKey(seed int64) ([]float64, error) {
	cfgs := kernelsSpec(seed).req.Configs()
	keys := map[string]bool{}
	var calls []float64
	for pass := 0; pass < 2; pass++ {
		for _, cfg := range cfgs {
			start := time.Now()
			k, err := core.CellKey(cfg, 1)
			nanos(&calls, start)
			if err != nil {
				return nil, err
			}
			keys[k] = true
		}
	}
	if len(keys) != len(cfgs) {
		return nil, fmt.Errorf("%d distinct keys for %d cells over two passes", len(keys), len(cfgs))
	}
	return calls, nil
}

// probeRequestHash times CampaignRequest.Hash on serve-warm's cold fill,
// checking it equals the hash of the request with its defaults spelled
// out.
func probeRequestHash(seed int64) ([]float64, error) {
	req := fillRequest(seed)
	want, err := req.Canonical().Hash()
	if err != nil {
		return nil, err
	}
	var calls []float64
	for i := 0; i < 200; i++ {
		start := time.Now()
		h, err := req.Hash()
		nanos(&calls, start)
		if err != nil {
			return nil, err
		}
		if h != want {
			return nil, fmt.Errorf("hash %s, canonical form hashes to %s", h, want)
		}
	}
	return calls, nil
}

// storeValues are cell-sized values (an encoded Breakdown) under hex keys.
func storeValues(n int) (keys []string, vals [][]byte) {
	bd, _ := json.Marshal(struct {
		V         int            `json:"v"`
		Breakdown core.Breakdown `json:"breakdown"`
	}{1, core.Breakdown{Total: 12345678, Signature: 0.125, Completed: true}})
	for i := 0; i < n; i++ {
		sum := sha256.Sum256([]byte(strconv.Itoa(i)))
		keys = append(keys, hex.EncodeToString(sum[:]))
		vals = append(vals, append(append([]byte(nil), bd...), byte('0'+i%10)))
	}
	return keys, vals
}

// probeStoreGet times memory hits.
func probeStoreGet() ([]float64, error) {
	st := store.NewMemory(0)
	keys, vals := storeValues(64)
	for i, k := range keys {
		if err := st.Put(k, vals[i]); err != nil {
			return nil, err
		}
	}
	var calls []float64
	for pass := 0; pass < 4; pass++ {
		for i, k := range keys {
			start := time.Now()
			v, ok := st.Get(k)
			nanos(&calls, start)
			if !ok || !bytes.Equal(v, vals[i]) {
				return nil, fmt.Errorf("memory get %s: hit=%v", k[:8], ok)
			}
		}
	}
	return calls, nil
}

var probeDirSeq int

func probeDir(e *env, name string) string {
	probeDirSeq++
	return filepath.Join(e.work, fmt.Sprintf("probe-%s-%d", name, probeDirSeq))
}

// probeStoreGetDisk times disk hits: a one-entry memory front over a disk
// store, read in a cycle, so every Get misses memory and reads the disk.
func probeStoreGetDisk(e *env) ([]float64, error) {
	dir := probeDir(e, "get")
	keys, vals := storeValues(32)
	w, err := store.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	for i, k := range keys {
		if err := w.Put(k, vals[i]); err != nil {
			return nil, err
		}
	}
	st, err := store.Open(dir, 1)
	if err != nil {
		return nil, err
	}
	var calls []float64
	for pass := 0; pass < 2; pass++ {
		for i, k := range keys {
			start := time.Now()
			v, ok := st.Get(k)
			nanos(&calls, start)
			if !ok || !bytes.Equal(v, vals[i]) {
				return nil, fmt.Errorf("disk get %s: hit=%v", k[:8], ok)
			}
		}
	}
	if s := st.Stats(); s.DiskHits != int64(len(calls)) {
		return nil, fmt.Errorf("%d disk hits for %d gets", s.DiskHits, len(calls))
	}
	return calls, nil
}

// probeStorePut times disk-backed Puts and reads every value back.
func probeStorePut(e *env) ([]float64, error) {
	st, err := store.Open(probeDir(e, "put"), 0)
	if err != nil {
		return nil, err
	}
	keys, vals := storeValues(32)
	var calls []float64
	for i, k := range keys {
		start := time.Now()
		err := st.Put(k, vals[i])
		nanos(&calls, start)
		if err != nil {
			return nil, err
		}
	}
	back, err := store.Open(st.Dir(), 1)
	if err != nil {
		return nil, err
	}
	for i, k := range keys {
		if v, ok := back.Get(k); !ok || !bytes.Equal(v, vals[i]) {
			return nil, fmt.Errorf("put %s not readable from disk", k[:8])
		}
	}
	return calls, nil
}

// stepTimes collects Step durations of the wrapped apps. Step runs on one
// simulated process at a time, but the lock keeps the bookkeeping
// independent of that.
var stepTimes struct {
	sync.Mutex
	by       map[string][]float64
	register sync.Once
	err      error
}

// timedApp wraps a suite app and times each Step.
type timedApp struct {
	appkit.App
	name string
}

func (a timedApp) Step(ctx *appkit.Context, iter int) error {
	start := time.Now()
	err := a.App.Step(ctx, iter)
	d := float64(time.Since(start))
	stepTimes.Lock()
	stepTimes.by[a.name] = append(stepTimes.by[a.name], d)
	stepTimes.Unlock()
	return err
}

// stepIters bounds the one-rank runs of the Step probe.
const stepIters = 12

// probeStep times Step of one app in a one-rank run at Never placement
// with no faults, the app wrapped through match.RegisterApp, and checks
// the wrapped run's signature equals the unwrapped run's.
func probeStep(app string) ([]float64, error) {
	stepTimes.register.Do(func() {
		stepTimes.by = map[string][]float64{}
		for _, name := range []string{"HPCCG", "LULESH"} {
			name := name
			f, err := apps.Lookup(name)
			if err == nil {
				err = match.RegisterApp("perfbench-"+name, func() match.App { return timedApp{App: f(), name: name} })
			}
			stepTimes.err = errors.Join(stepTimes.err, err)
		}
	})
	if stepTimes.err != nil {
		return nil, stepTimes.err
	}
	params, _, err := core.ResolveParams(core.Config{App: app, Input: core.Small})
	if err != nil {
		return nil, err
	}
	params.MaxIter = stepIters
	cfg := core.Config{App: app, Procs: 1, Nodes: 1, Input: core.Small, Params: params,
		CkptPolicy: ckpt.Config{Kind: ckpt.Never}}
	plain, err := match.Run(cfg)
	if err != nil {
		return nil, err
	}
	stepTimes.Lock()
	stepTimes.by[app] = nil
	stepTimes.Unlock()
	cfg.App = "perfbench-" + app
	wrapped, err := match.Run(cfg)
	if err != nil {
		return nil, err
	}
	if wrapped.Signature != plain.Signature || !wrapped.Completed {
		return nil, fmt.Errorf("wrapped %s signature %v, unwrapped %v", app, wrapped.Signature, plain.Signature)
	}
	stepTimes.Lock()
	defer stepTimes.Unlock()
	if len(stepTimes.by[app]) != stepIters {
		return nil, fmt.Errorf("timed %d steps of %d", len(stepTimes.by[app]), stepIters)
	}
	return stepTimes.by[app], nil
}

// probeServe times matchserve's calls: a server with an in-memory cache
// simulates one small cell once, then serves warm round trips, each a new
// campaign over that cell, whose submit and results calls are timed.
func probeServe(e *env) (submitMS, resultsMS float64, err error) {
	srv, err := startServer(e, "")
	if err != nil {
		return 0, 0, err
	}
	defer srv.stop()
	req := core.CampaignRequest{Apps: []string{"miniFE"}, Designs: []core.Design{core.RestartFTI},
		Procs: 8, Input: core.Small, MaxFaults: 0, Seed: e.seed}
	var want core.Breakdown
	var submits, fetches []float64
	for i := 0; i <= 40; i++ {
		req.Seed = e.seed + int64(i) // ignored by the failure-free cell: always a cache hit after the first
		body, _ := json.Marshal(req)
		start := time.Now()
		rt, err := srv.roundTrip(body)
		e.spans.add("probe serve round trip", rootSpan, start, time.Now())
		if err != nil {
			return 0, 0, err
		}
		if len(rt.res) != 1 || !rt.created {
			return 0, 0, fmt.Errorf("round trip %d: %d results, new campaign %v", i, len(rt.res), rt.created)
		}
		if i == 0 {
			want = rt.res[0].Breakdown
			continue
		}
		if rt.res[0].Breakdown != want {
			return 0, 0, fmt.Errorf("round trip %d: cached result differs from the simulated one", i)
		}
		submits = append(submits, ms(rt.submit))
		fetches = append(fetches, ms(rt.fetch))
	}
	return median(submits), median(fetches), nil
}
