package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"match/internal/core"
	"match/internal/detect"
	"match/internal/obs"
	"match/internal/simnet"
	"match/internal/store"
)

// campaignSeconds is about how long one measured sweep campaign takes on a
// two-CPU host; a run measures one campaign per campaignSeconds of
// --seconds, and at least one.
const campaignSeconds = 25 * time.Second

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 5

// sweepSpec is one in-process campaign workload.
type sweepSpec struct {
	name string
	req  core.CampaignRequest // the measured campaign, run whole each round
	warm core.CampaignRequest // the warm-up campaign of set-up
	// store attaches a fresh disk-backed result store to every campaign,
	// so every cell is a miss plus a write.
	store bool
	// meter attaches a SweepMeter, which gives every cell a metrics
	// registry, as matchserve does.
	meter bool
}

// kernelsSpec: HPCCG, LULESH and CoMD under all four designs, k = 0..1, at
// 64 ranks on Small input, observers off. The app kernels dominate its
// host time.
func kernelsSpec(seed int64) sweepSpec {
	return sweepSpec{
		name: "sweep-kernels",
		req: core.CampaignRequest{
			Apps: []string{"HPCCG", "LULESH", "CoMD"}, Designs: core.Designs(),
			Procs: 64, Input: core.Small, MaxFaults: 1, Seed: seed,
		},
		warm: core.CampaignRequest{
			Apps: []string{"HPCCG"}, Designs: []core.Design{core.RestartFTI},
			Procs: 8, Input: core.Small, MaxFaults: 0, Seed: seed,
		},
		store: true,
	}
}

// eventsSpec: AMG, miniFE and miniVite under all four designs, k = 0..2,
// at 64 ranks under a 25 ms ring heartbeat, metered. Scheduling and messaging dominate
// its host time, and it runs the observer layer that sweep-kernels leaves
// off.
func eventsSpec(seed int64) sweepSpec {
	ring := []detect.Config{{Kind: detect.Ring, HeartbeatPeriod: 25 * simnet.Millisecond}}
	return sweepSpec{
		name: "sweep-events",
		req: core.CampaignRequest{
			Apps: []string{"AMG", "miniFE", "miniVite"}, Designs: core.Designs(),
			Procs: 64, Input: core.Small, MaxFaults: 2, Seed: seed, Detectors: ring,
		},
		warm: core.CampaignRequest{
			Apps: []string{"miniFE"}, Designs: []core.Design{core.UlfmFTI},
			Procs: 8, Input: core.Small, MaxFaults: 0, Seed: seed, Detectors: ring,
		},
		meter: true,
	}
}

func runSweepKernels(e *env) (*report, error) { return runSweep(e, kernelsSpec(e.seed)) }
func runSweepEvents(e *env) (*report, error)  { return runSweep(e, eventsSpec(e.seed)) }

// cellTiming is one completed cell as the Progress callback saw it.
type cellTiming struct {
	res  core.Result
	wall time.Duration
	end  time.Time
}

// campaignRun is one CampaignRunner.Run call and what it left behind.
type campaignRun struct {
	results []core.Result
	cells   []cellTiming // completion order
	err     error
	elapsed time.Duration
	stats   store.Stats
	counts  map[string]int64 // from the sweep meter, when attached
}

// cellWallSum is the host time the cells took, summed over workers.
func (cr campaignRun) cellWallSum() time.Duration {
	var d time.Duration
	for _, c := range cr.cells {
		d += c.wall
	}
	return d
}

var storeSeq int

// runCampaign runs req once on a fresh runner, recording into spans (nil:
// none) a campaign span and one span per cell, reconstructed from the
// Progress wall time.
func runCampaign(e *env, spans *spanLog, req core.CampaignRequest, withStore, withMeter bool) campaignRun {
	var cr campaignRun
	rn := core.CampaignRunner{Workers: e.workers}
	storeSeq++
	dir := filepath.Join(e.work, fmt.Sprintf("store-%d", storeSeq))
	defer os.RemoveAll(dir)
	start := time.Now()
	if withStore {
		st, err := store.Open(dir, 0)
		if err != nil {
			cr.err = err
			return cr
		}
		rn.Store = st
	}
	if withMeter {
		rn.Meter = obs.NewSweepMeter()
	}
	rn.Progress = func(_, _ int, r core.Result, wall time.Duration) {
		cr.cells = append(cr.cells, cellTiming{res: r, wall: wall, end: time.Now()})
	}
	cr.results, cr.err = rn.Run(req, nil)
	cr.elapsed = time.Since(start)
	if rn.Store != nil {
		cr.stats = rn.Store.Stats()
	}
	if rn.Meter != nil {
		var buf bytes.Buffer
		if err := rn.Meter.WriteOpenMetrics(&buf); err != nil && cr.err == nil {
			cr.err = err
		}
		cr.counts = parseCounts(buf.Bytes())
	}
	if spans != nil {
		id := spans.add("campaign", rootSpan, start, start.Add(cr.elapsed))
		for _, c := range cr.cells {
			spans.add("cell "+cellID(c.res.Config), id, c.end.Add(-c.wall), c.end)
		}
	}
	return cr
}

// countFamilies maps the reported exact counts to their OpenMetrics
// counter families.
var countFamilies = map[string]string{
	"match_sim_events_fired_total":        "obs.events_fired",
	"match_mpi_messages_total":            "obs.messages",
	"match_mpi_bytes_total":               "obs.msg_bytes",
	"match_mpi_collectives_total":         "obs.collectives",
	"match_detect_heartbeat_rounds_total": "obs.heartbeats",
	"match_fti_checkpoints_total":         "obs.checkpoints",
	"match_fti_checkpoint_bytes_total":    "obs.ckpt_bytes",
	"match_fti_restores_total":            "obs.restores",
}

// parseCounts sums the counted families of an OpenMetrics exposition over
// their labels. Every reported count is present, zero when absent.
func parseCounts(b []byte) map[string]int64 {
	out := map[string]int64{}
	for _, name := range countFamilies {
		out[name] = 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		fam := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			fam = line[:i]
		}
		name, ok := countFamilies[fam]
		if !ok {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err == nil {
			out[name] += int64(v)
		}
	}
	return out
}

// checker verifies campaign outputs and counts the failed cells.
type checker struct {
	spec   sweepSpec
	golden map[string]string // nil: not at the default seed
	first  map[string]string // digests of the first campaign, for -update-golden
	counts map[string]int64  // exact counts of the first metered campaign
}

// check verifies one measured campaign: every cell completed, its
// signature equals the failure-free signature of the same app in the same
// campaign, its Breakdown digest matches the golden file at the default
// seed, a store-backed campaign simulated and stored every cell, and a
// metered campaign counted exactly what the first one did.
func (c *checker) check(cr campaignRun, rep *report) {
	attempted := len(c.spec.req.Configs())
	rep.attempted += attempted
	rep.failed += attempted - len(cr.results)
	if cr.err != nil {
		rep.problem("campaign: %v", cr.err)
	}
	ref := map[string]float64{}
	for _, r := range cr.results {
		if _, seen := ref[r.Config.App]; !seen && r.Config.FaultCount() == 0 {
			ref[r.Config.App] = r.Breakdown.Signature
		}
	}
	digests := map[string]string{}
	for _, r := range cr.results {
		id := cellID(r.Config)
		digests[id] = digest(r.Breakdown)
		sig, ok := ref[r.Config.App]
		switch {
		case !r.Breakdown.Completed:
			rep.failed++
			rep.problem("%s did not complete", id)
		case !ok || sig != r.Breakdown.Signature:
			rep.failed++
			rep.problem("%s signature %v, failure-free %v", id, r.Breakdown.Signature, sig)
		}
	}
	if c.first == nil {
		c.first = digests
	}
	if c.golden != nil {
		for _, bad := range compareGolden(c.golden, digests) {
			rep.failed++
			rep.problem("golden: %s", bad)
		}
	}
	if c.spec.store && (cr.stats.Hits != 0 || cr.stats.Misses != int64(attempted) || cr.stats.Puts != int64(attempted)) {
		rep.problem("store: %d hits, %d misses, %d puts; want every one of %d cells a miss plus a write",
			cr.stats.Hits, cr.stats.Misses, cr.stats.Puts, attempted)
	}
	if cr.counts != nil {
		if c.counts == nil {
			c.counts = cr.counts
		}
		for k, v := range cr.counts {
			if c.counts[k] != v {
				rep.problem("counts: %s = %d in one campaign, %d in another of the same cells", k, v, c.counts[k])
			}
		}
	}
}

func runSweep(e *env, spec sweepSpec) (*report, error) {
	rep := &report{layer: map[string]metric{}}
	ck := &checker{spec: spec}
	if e.seed == defaultSeed && !e.update {
		g, err := loadGolden(spec.name)
		if err != nil {
			return nil, err
		}
		ck.golden = g.Cells
	}
	// Set-up: a fresh store and meter, plus one small warm-up campaign
	// through the same runner path, several times.
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		cr := runCampaign(e, e.spans, spec.warm, spec.store, spec.meter)
		if cr.err != nil {
			return nil, fmt.Errorf("set-up: %w", cr.err)
		}
		rep.setups = append(rep.setups, time.Since(start))
	}
	if e.traced {
		return rep, tracedSweep(e, spec, ck, rep)
	}
	// Timed phase: whole campaigns, closed loop. Their number depends on
	// --seconds alone, so two builds of the program measure the same cells
	// and the same percentiles.
	for i := 0; i < max(1, int(e.seconds/campaignSeconds)); i++ {
		cr := runCampaign(e, e.spans, spec.req, spec.store, spec.meter)
		ck.check(cr, rep)
		rep.timed += cr.elapsed
		for _, c := range cr.cells {
			rep.opMS = append(rep.opMS, ms(c.wall))
		}
		rep.cells += len(cr.results)
		if cr.err != nil {
			break
		}
	}
	rep.peakRSSKB = selfPeakRSSKB()
	if e.update {
		if e.seed != defaultSeed {
			return nil, fmt.Errorf("golden digests are recorded at seed %d", defaultSeed)
		}
		if err := writeGolden(e.root, goldenFile{Workload: spec.name, Seed: defaultSeed, Cells: ck.first}); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// tracedSweep is the traced variant: the warm-up campaign in alternating
// untraced and traced (spans plus CPU profile) pairs, whose ratio is the
// trace overhead; one profiled campaign (the CPU split); exact counts from
// a metered campaign; and the layer probes.
func tracedSweep(e *env, spec sweepSpec, ck *checker, rep *report) error {
	var plain, traced []time.Duration
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if cr := runCampaign(e, nil, spec.warm, spec.store, spec.meter); cr.err != nil {
			return fmt.Errorf("warm-up: %w", cr.err)
		}
		plain = append(plain, time.Since(start))
		if _, err := profileRun(func() error {
			start := time.Now()
			if cr := runCampaign(e, e.spans, spec.warm, spec.store, spec.meter); cr.err != nil {
				return fmt.Errorf("traced warm-up: %w", cr.err)
			}
			traced = append(traced, time.Since(start))
			return nil
		}); err != nil {
			return err
		}
	}
	var cr campaignRun
	samples, err := profileRun(func() error {
		cr = runCampaign(e, e.spans, spec.req, spec.store, spec.meter)
		return nil
	})
	if err != nil {
		return err
	}
	ck.check(cr, rep)
	counts := cr.counts
	if counts == nil {
		metered := runCampaign(e, e.spans, spec.req, spec.store, true)
		ck.check(metered, rep)
		counts = metered.counts
	}
	shares := layerShares(samples)
	addShares(rep, shares)
	for k, v := range counts {
		rep.layer[k] = metric{float64(v), "count"}
	}
	checkCountsRepeat(e, spec.name, counts, rep)
	rep.layer["simnet.host_ns_per_event"] = metric{frac(float64(cr.cellWallSum()), float64(counts["obs.events_fired"])), "ns"}
	rep.layer["store.hit_ratio"] = metric{cr.stats.HitRate(), "frac"}
	rep.layer["bench.trace_overhead_frac"] = metric{
		frac(medianDur(traced, time.Millisecond), medianDur(plain, time.Millisecond)) - 1, "frac"}
	reportDesignSplit(e, spec.name, shares)
	return runProbes(e, rep)
}

// addShares reports every layer's CPU share.
func addShares(rep *report, shares map[string]float64) {
	for _, l := range cpuLayers {
		rep.layer[l+".cpu_share"] = metric{shares[l], "frac"}
	}
}

// reportDesignSplit prints whether the CPU split matches what the workload
// was chosen for: apps above handoff+simnet+mpi on sweep-kernels, and the
// reverse on sweep-events. It is a statement about the workload design,
// not an output check: a faster kernel may legitimately flip it.
func reportDesignSplit(e *env, name string, shares map[string]float64) {
	apps := 0.0
	for _, l := range cpuLayers {
		if strings.HasPrefix(l, "apps.") {
			apps += shares[l]
		}
	}
	sched := shares["handoff"] + shares["simnet"] + shares["mpi"]
	want := "apps > handoff+simnet+mpi"
	holds := apps > sched
	if name == "sweep-events" {
		want, holds = "handoff+simnet+mpi > apps", sched > apps
	}
	fmt.Fprintf(e.out, "design split: apps %.3f, handoff+simnet+mpi %.3f; expected %s: %v\n", apps, sched, want, holds)
}
