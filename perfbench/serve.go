package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"match/internal/core"
	"match/internal/detect"
	"match/internal/obs"
	"match/internal/store"
)

// serveProcs is the rank count of serve-warm's cached cells: cheap to
// simulate once during set-up, never simulated again.
const serveProcs = 16

// warmOps is how many untimed round trips end serve-warm's set-up.
const warmOps = 5

// serveSetupReps is how many times serve-warm sets itself up; each set-up
// simulates the cold fill, so it repeats less often than the sweeps'.
const serveSetupReps = 3

// opsPerSecond sizes serve-warm's timed phase: a fixed number of round
// trips per second of --seconds, which takes about that long on a two-CPU
// host. Fixed work keeps what the server retains (every campaign it ever
// ran), and with it the server's memory and GC load, the same in every
// run, whatever the host's speed at the time.
const opsPerSecond = 200

// tailWindow is how many consecutive round trips share one tail
// percentile; op_tail_ms is the median over the run's windows. 250 ops give
// p96 with ten samples beyond it: a host that preempts the client or the
// server for a few milliseconds does so in about one op in fifty, so a
// tail nearer p99 would measure how often that happened in the run rather
// than the serving path.
const tailWindow = 250

// clientGCPercent is the benchmark process's GOGC on serve-warm, where it
// is only the client. Decoding the results allocates about 200 KB a round
// trip; at the default of 100 the client's own collector runs every few
// round trips and shows in op latency as serving time.
const clientGCPercent = 400

// replayOps is how many warm requests the traced run replays in-process
// under the CPU profiler.
const replayOps = 1500

// fillRequest is serve-warm's cold fill: miniFE and AMG under all four
// designs, k = 0..1.
func fillRequest(seed int64) core.CampaignRequest {
	return core.CampaignRequest{
		Apps: []string{"miniFE", "AMG"}, Designs: core.Designs(),
		Procs: serveProcs, Input: core.Small, MaxFaults: 1, Seed: seed,
	}
}

// reqGen yields warm requests: each has a campaign ID of its own, and
// every cell it names is one the cold fill cached. A request is a two-app,
// four-design sequence (repetition allowed, so always 16 cells) over the
// fill's apps and designs, in an order the seed shuffles. What makes each
// ID new is its detector list: the per-design preset, tagged with a
// heartbeat size the preset ignores, so the request hash changes and the
// cell keys do not.
type reqGen struct {
	list []core.CampaignRequest
	i    int
}

func newReqGen(fill core.CampaignRequest, seed int64) *reqGen {
	g := &reqGen{}
	ds, n := fill.Designs, len(fill.Designs)
	for _, a := range fill.Apps {
		for _, b := range fill.Apps {
			for i := 0; i < n*n*n*n; i++ {
				r := fill
				r.Apps = []string{a, b}
				r.Designs = []core.Design{ds[i%n], ds[i/n%n], ds[i/(n*n)%n], ds[i/(n*n*n)%n]}
				g.list = append(g.list, r)
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(g.list), func(i, j int) {
		g.list[i], g.list[j] = g.list[j], g.list[i]
	})
	return g
}

// next returns the next request's JSON body and its cell count.
func (g *reqGen) next() ([]byte, int) {
	r := g.list[g.i%len(g.list)]
	g.i++
	r.Detectors = []detect.Config{{Kind: detect.Preset, HeartbeatBytes: g.i}}
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a CampaignRequest is plain data
	}
	return b, len(r.Configs())
}

// child is a running matchserve process.
type child struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	hc     *http.Client
}

// startServer starts matchserve on a free loopback port over cacheDir
// ("" keeps its cache in memory) and waits until it answers. The port is
// free when chosen but may be taken before the server binds it, so a
// server that exits during start-up is retried on another port.
func startServer(e *env, cacheDir string) (*child, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var c *child
		if c, err = startServerOnce(e, cacheDir); err == nil {
			return c, nil
		}
	}
	return nil, err
}

func startServerOnce(e *env, cacheDir string) (*child, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	args := []string{"-addr", addr, "-j", strconv.Itoa(e.workers), "-max-per-client", "0"}
	if cacheDir != "" {
		args = append(args, "-cache", cacheDir)
	}
	logf, err := os.Create(filepath.Join(e.work, "matchserve-"+strings.ReplaceAll(addr, ":", "-")+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(e.matchserve, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start matchserve: %w", err)
	}
	c := &child{cmd: cmd, base: "http://" + addr, exited: make(chan struct{}),
		hc: &http.Client{Timeout: 60 * time.Second}}
	go func() {
		cmd.Wait()
		close(c.exited)
	}()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if resp, err := c.hc.Get(c.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		select {
		case <-c.exited:
			return nil, fmt.Errorf("matchserve exited during start-up: %v", cmd.ProcessState)
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, errors.New("matchserve did not answer within 15 s")
		}
	}
}

// stop kills the server, waits for it to exit, and returns its peak
// resident set size in KiB.
func (c *child) stop() int64 {
	c.cmd.Process.Signal(syscall.SIGKILL)
	<-c.exited
	c.hc.CloseIdleConnections()
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return int64(ru.Maxrss)
	}
	return 0
}

// statusView is the part of a campaign status document the client reads.
type statusView struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
}

// roundTrip is one op's outcome: the results and each call's duration.
type roundTrip struct {
	res                 []core.Result
	created             bool
	submit, wait, fetch time.Duration
}

// roundTrip runs one op: POST /campaigns, wait for the campaign to finish
// over server-sent events, GET its results as JSON.
func (c *child) roundTrip(body []byte) (roundTrip, error) {
	var rt roundTrip
	t0 := time.Now()
	resp, err := c.hc.Post(c.base+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return rt, err
	}
	var st statusView
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return rt, fmt.Errorf("submit: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return rt, fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	rt.created = resp.StatusCode == http.StatusAccepted
	t1 := time.Now()
	rt.submit = t1.Sub(t0)
	if err := c.wait(st.ID); err != nil {
		return rt, err
	}
	t2 := time.Now()
	rt.wait = t2.Sub(t1)
	resp, err = c.hc.Get(c.base + "/campaigns/" + st.ID + "/results?format=json")
	if err != nil {
		return rt, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return rt, fmt.Errorf("results: HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rt.res); err != nil {
		return rt, fmt.Errorf("results: %w", err)
	}
	rt.fetch = time.Since(t2)
	return rt, nil
}

// wait follows a campaign's event stream until it is done.
func (c *child) wait(id string) error {
	resp, err := c.hc.Get(c.base + "/campaigns/" + id + "?watch=1")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var st statusView
		if err := json.Unmarshal([]byte(data), &st); err != nil {
			return fmt.Errorf("watch: %w", err)
		}
		switch st.State {
		case "done":
			io.Copy(io.Discard, resp.Body) // the server ends the stream; reuse the connection
			return nil
		case "failed":
			return fmt.Errorf("campaign failed: %s", st.Error)
		}
	}
	return fmt.Errorf("watch ended before the campaign finished: %v", sc.Err())
}

// get fetches a JSON or text document.
func (c *child) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return b, err
}

// cacheDoc is the part of GET /cache the benchmark reads.
type cacheDoc struct {
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	Puts    int64   `json:"puts"`
	HitRate float64 `json:"hit_rate"`
}

// refOf indexes the cold fill's results by cell, checking each like a
// sweep cell: completed, and signed like the failure-free run of its app.
func refOf(results []core.Result, rep *report) map[string]core.Breakdown {
	ref := map[string]core.Breakdown{}
	sig := map[string]float64{}
	for _, r := range results {
		ref[cellID(r.Config)] = r.Breakdown
		if r.Config.FaultCount() == 0 {
			if _, seen := sig[r.Config.App]; !seen {
				sig[r.Config.App] = r.Breakdown.Signature
			}
		}
	}
	for _, r := range results {
		if s, ok := sig[r.Config.App]; !r.Breakdown.Completed || !ok || s != r.Breakdown.Signature {
			rep.problem("cold fill: %s did not complete with the failure-free signature", cellID(r.Config))
		}
	}
	return ref
}

// checkWarm counts an op failed unless it created a new campaign whose
// every result equals the cold fill's result for the same cell.
func checkWarm(rt roundTrip, cells int, ref map[string]core.Breakdown) error {
	if !rt.created {
		return errors.New("request did not create a new campaign")
	}
	if len(rt.res) != cells {
		return fmt.Errorf("%d results, want %d", len(rt.res), cells)
	}
	for _, r := range rt.res {
		if want, ok := ref[cellID(r.Config)]; !ok || want != r.Breakdown {
			return fmt.Errorf("%s differs from the cold fill", cellID(r.Config))
		}
	}
	return nil
}

// serveState is serve-warm's running state.
type serveState struct {
	e      *env
	rep    *report
	gen    *reqGen
	srv    *child
	ref    map[string]core.Breakdown
	dir    string
	bodies [][]byte // the traced ops, for the in-process replay
}

// op runs and checks one timed round trip. spans may be nil.
func (s *serveState) op(spans *spanLog, keep bool) time.Duration {
	body, cells := s.gen.next()
	start := time.Now()
	rt, err := s.srv.roundTrip(body)
	d := time.Since(start)
	s.rep.attempted++
	if err == nil {
		err = checkWarm(rt, cells, s.ref)
	}
	if err != nil {
		s.rep.failed++
		s.rep.problem("op %d: %v", s.rep.attempted, err)
		return d
	}
	if spans != nil {
		id := spans.add("request", rootSpan, start, start.Add(d))
		spans.add("POST /campaigns", id, start, start.Add(rt.submit))
		spans.add("watch", id, start.Add(rt.submit), start.Add(rt.submit+rt.wait))
		spans.add("GET results", id, start.Add(rt.submit+rt.wait), start.Add(d))
	}
	if keep {
		s.bodies = append(s.bodies, body)
	}
	s.rep.cells += cells
	return d
}

// setup cold-fills a fresh cache through one server, restarts the server
// on that cache and warms it up.
func (s *serveState) setup(i int) error {
	fillBody, err := json.Marshal(fillRequest(s.e.seed))
	if err != nil {
		return err
	}
	s.dir = filepath.Join(s.e.work, fmt.Sprintf("cache-%d", i))
	cold, err := startServer(s.e, s.dir)
	if err != nil {
		return err
	}
	rt, err := cold.roundTrip(fillBody)
	cold.stop()
	if err != nil {
		return fmt.Errorf("cold fill: %w", err)
	}
	ref := refOf(rt.res, s.rep)
	if s.ref != nil {
		for k, v := range ref {
			if s.ref[k] != v {
				s.rep.problem("cold fill: %s differs between two set-ups", k)
			}
		}
	}
	s.ref = ref
	if s.srv, err = startServer(s.e, s.dir); err != nil {
		return err
	}
	for j := 0; j < warmOps; j++ {
		body, cells := s.gen.next()
		rt, err := s.srv.roundTrip(body)
		if err == nil {
			err = checkWarm(rt, cells, s.ref)
		}
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func runServeWarm(e *env) (*report, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(clientGCPercent))
	rep := &report{layer: map[string]metric{}, tailWindow: tailWindow}
	s := &serveState{e: e, rep: rep, gen: newReqGen(fillRequest(e.seed), e.seed)}
	defer func() {
		if s.srv != nil {
			s.srv.stop()
		}
	}()
	for i := 0; i < serveSetupReps; i++ {
		if s.srv != nil {
			s.srv.stop()
			s.srv = nil
		}
		start := time.Now()
		if err := s.setup(i); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rep.setups = append(rep.setups, time.Since(start))
	}
	if e.traced {
		return rep, s.traced()
	}
	start := time.Now()
	for i := 0; i < opsPerSecond*int(e.seconds/time.Second); i++ {
		rep.opMS = append(rep.opMS, ms(s.op(nil, false)))
	}
	rep.timed = time.Since(start)
	s.checkCache()
	rep.peakRSSKB = s.srv.stop()
	s.srv = nil
	return rep, nil
}

// checkCache reads GET /cache and fails the run if any cell missed the
// cache since the warm server started. It returns the hit rate.
func (s *serveState) checkCache() float64 {
	b, err := s.srv.get("/cache")
	var c cacheDoc
	if err == nil {
		err = json.Unmarshal(b, &c)
	}
	if err != nil {
		s.rep.problem("cache stats: %v", err)
		return 0
	}
	if c.Misses != 0 || c.Puts != 0 || c.HitRate != 1 {
		s.rep.problem("serve-warm simulated cells: %d misses, %d puts, hit rate %v", c.Misses, c.Puts, c.HitRate)
	}
	return c.HitRate
}

// traced is serve-warm's traced variant: alternating untraced and traced
// round trips (the trace overhead), the server's cache and counters, an
// in-process replay of the traced requests under the CPU profiler (the
// child cannot be profiled from outside), and the layer probes.
func (s *serveState) traced() error {
	e, rep := s.e, s.rep
	// Untraced and traced round trips alternate, so both see the server
	// in the same state (it keeps every campaign it ran).
	var plain, traced []float64
	for i := 0; i < max(opsPerSecond*int(e.seconds/time.Second), 2*replayOps); i++ {
		if i%2 == 0 {
			plain = append(plain, ms(s.op(nil, false)))
		} else {
			traced = append(traced, ms(s.op(e.spans, len(s.bodies) < replayOps)))
		}
	}
	rep.layer["bench.trace_overhead_frac"] = metric{frac(median(traced), median(plain)) - 1, "frac"}
	rep.layer["store.hit_ratio"] = metric{s.checkCache(), "frac"}
	om, err := s.srv.get("/metrics")
	if err != nil {
		return err
	}
	counts := parseCounts(om)
	for k, v := range counts {
		rep.layer[k] = metric{float64(v), "count"}
	}
	checkCountsRepeat(e, "serve-warm", counts, rep)
	s.srv.stop()
	s.srv = nil

	st, err := store.Open(s.dir, 0)
	if err != nil {
		return err
	}
	samples, err := profileRun(func() error { return s.replay(st) })
	if err != nil {
		return err
	}
	addShares(rep, layerShares(samples))
	// No cell is simulated on this workload; the host time per event is
	// taken from the cold fill's cells, replayed in-process with a meter.
	cr := runCampaign(e, e.spans, fillRequest(e.seed), false, true)
	if cr.err != nil {
		return fmt.Errorf("cold fill replay: %w", cr.err)
	}
	rep.layer["simnet.host_ns_per_event"] = metric{frac(float64(cr.cellWallSum()), float64(cr.counts["obs.events_fired"])), "ns"}
	return runProbes(e, rep)
}

// replay does in-process what matchserve does for each traced request:
// decode and validate the request, hash it, run it against the warm store
// with a sweep meter, and encode the results.
func (s *serveState) replay(st *store.Store) error {
	for _, body := range s.bodies {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req core.CampaignRequest
		if err := dec.Decode(&req); err != nil {
			return err
		}
		if err := req.Validate(); err != nil {
			return err
		}
		if _, err := req.Hash(); err != nil {
			return err
		}
		rn := core.CampaignRunner{Workers: s.e.workers, Store: st, Meter: obs.NewSweepMeter()}
		var table bytes.Buffer
		results, err := rn.Run(req, &table)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(io.Discard)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			return err
		}
		if err := checkWarm(roundTrip{res: results, created: true}, len(req.Configs()), s.ref); err != nil {
			s.rep.problem("replay: %v", err)
		}
	}
	if c := st.Stats(); c.Misses != 0 {
		s.rep.problem("replay: %d cache misses", c.Misses)
	}
	return nil
}
