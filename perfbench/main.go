package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// maxProblems bounds how many failed checks a run prints.
const maxProblems = 20

// defaultSeed is the seed the golden digests were recorded at.
const defaultSeed = 1

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the benchmark's last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload runs with.
type env struct {
	root       string // repository checkout
	work       string // scratch directory of this run, removed at exit
	matchserve string // matchserve binary
	seed       int64
	seconds    time.Duration
	workers    int
	traced     bool
	spans      *spanLog // nil unless traced
	update     bool     // rewrite the golden digests instead of checking them
	out        io.Writer
}

// report is what one workload run measured and checked.
type report struct {
	attempted, failed int
	problems          []string // failed checks outside the ops (probes, counts, cache)
	opMS              []float64
	tailWindow        int // ops per window of op_tail_ms; 0 is the whole run
	cells             int
	timed             time.Duration
	setups            []time.Duration
	peakRSSKB         int64
	layer             map[string]metric
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type workload struct {
	why string
	run func(e *env) (*report, error)
}

var workloads = map[string]workload{
	"sweep-kernels": {"compute-bound campaign: app kernels dominate host time", runSweepKernels},
	"sweep-events":  {"event-bound metered campaign: scheduling and messaging dominate", runSweepEvents},
	"serve-warm":    {"warm-cache matchserve round trips: no simulation, only the request, cache and HTTP path", runServeWarm},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", defaultSeed, "input seed")
		seconds = flag.Int("seconds", 20, "seconds to measure")
		traceOn = flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
		root    = flag.String("root", ".", "repository checkout")
		serve   = flag.String("matchserve", "", "matchserve binary built from the checkout")
		update  = flag.Bool("update-golden", false, "rewrite the golden Breakdown digests at the default seed")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || (*traceOn != 0 && *traceOn != 1) || *seconds < 1 || *serve == "" {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1, -trace 0|1 and -matchserve\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := run(*name, w, *root, *serve, *seed, *seconds, *traceOn == 1, *update); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for k := range workloads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func run(name string, w workload, root, serve string, seed int64, seconds int, traced, update bool) error {
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return fmt.Errorf("not a MATCH checkout: %w", err)
	}
	work := filepath.Join(root, ".bench_build", "perfbench-work", fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	e := &env{
		root:       root,
		work:       work,
		matchserve: serve,
		seed:       seed,
		seconds:    time.Duration(seconds) * time.Second,
		workers:    min(2, runtime.NumCPU()),
		traced:     traced,
		update:     update,
		out:        os.Stdout,
	}
	if traced {
		e.spans = newSpanLog()
	}
	fmt.Fprintf(e.out, "perfbench %s: %s\n", name, w.why)
	fmt.Fprintf(e.out, "seed %d, %d s, %d workers, traced=%v\n", seed, seconds, e.workers, traced)
	root0 := e.spans.open("workload "+name, 0)
	cpu0 := readCPUTimes()
	rep, err := w.run(e)
	e.spans.close(root0)
	if cpu0 != nil {
		if cpu1 := readCPUTimes(); cpu1 != nil {
			// Time the hypervisor gave other guests: a noisy host shows here.
			fmt.Fprintf(e.out, "host: %.1f%% of CPU time stolen during the run\n",
				100*frac(float64(cpu1[7]-cpu0[7]), float64(sum(cpu1)-sum(cpu0))))
		}
	}
	if err != nil {
		return err
	}
	if traced {
		path := filepath.Join(root, ".bench_build", "perfbench-spans", fmt.Sprintf("%s-seed%d.json", name, seed))
		if err := e.spans.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(e.out, "spans: %s\n", path)
	}
	for i, p := range rep.problems {
		if i == maxProblems {
			fmt.Fprintf(e.out, "CHECK FAILED: ... and %d more\n", len(rep.problems)-i)
			break
		}
		fmt.Fprintln(e.out, "CHECK FAILED:", p)
	}
	line := resultLine{
		Correct:   rep.failed == 0 && len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.layer,
	}
	if !traced {
		line.Metrics = endToEnd(e.out, rep)
		fmt.Fprintf(e.out, "%-28s %12.6f %s\n", "failed_frac", frac(float64(rep.failed), float64(rep.attempted)), "frac")
	}
	printMetrics(e.out, line.Metrics)
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintln(e.out, string(b))
	return nil
}

// endToEnd derives the user-visible metrics from a timed run.
func endToEnd(out io.Writer, rep *report) map[string]metric {
	tl, windows := windowTail(rep.opMS, rep.tailWindow)
	if windows == 1 {
		fmt.Fprintf(out, "op_tail_ms is p%d of %d ops (%d samples beyond it)\n", tl.Pct, tl.N, tl.Beyond)
	} else {
		fmt.Fprintf(out, "op_tail_ms is the median over %d windows of %d ops of each window's p%d (%d samples beyond it)\n",
			windows, tl.N, tl.Pct, tl.Beyond)
	}
	setups := make([]float64, len(rep.setups))
	for i, d := range rep.setups {
		setups[i] = d.Seconds()
	}
	return map[string]metric{
		"cells_per_s": {frac(float64(rep.cells), rep.timed.Seconds()), "1/s"},
		"op_p50_ms":   {median(rep.opMS), "ms"},
		"op_tail_ms":  {tl.Value, "ms"},
		"setup_s":     {median(setups), "s"},
		"peak_rss_mb": {float64(rep.peakRSSKB) / 1024, "MB"},
	}
}

func printMetrics(out io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "%-28s %12.6f %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

// readCPUTimes returns the aggregate CPU line of /proc/stat (user, nice,
// system, idle, iowait, irq, softirq, steal, ...), or nil where there is
// none.
func readCPUTimes() []int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	var out []int64
	for _, x := range f[1:] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

// selfPeakRSSKB is this process's peak resident set size in KiB.
func selfPeakRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return int64(ru.Maxrss)
}

// checkCountsRepeat compares this run's exact counts with those an earlier
// run of the same benchmark binary recorded for the same workload and
// seed, then records them. The counts are deterministic, so any difference
// is a defect.
func checkCountsRepeat(e *env, workload string, counts map[string]int64, rep *report) {
	exe, err := os.Executable()
	if err != nil {
		rep.problem("counts: locate executable: %v", err)
		return
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		rep.problem("counts: read executable: %v", err)
		return
	}
	sum := sha256.Sum256(bin)
	dir := filepath.Join(e.root, ".bench_build", "perfbench-counts")
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", workload, e.seed, hex.EncodeToString(sum[:8])))
	if prev, err := os.ReadFile(path); err == nil {
		var old map[string]int64
		if err := json.Unmarshal(prev, &old); err != nil {
			rep.problem("counts: %s: %v", path, err)
			return
		}
		for k, v := range counts {
			if old[k] != v {
				rep.problem("counts: %s = %d, an earlier run of the same code counted %d", k, v, old[k])
			}
		}
		return
	}
	b, err := json.Marshal(counts)
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		rep.problem("counts: record: %v", err)
	}
}
