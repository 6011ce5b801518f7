// Command perfbench is the MATCH benchmark: it measures how much host time
// users of the simulator wait for per campaign cell and per campaign, end
// to end and per layer, on three fixed workloads, and checks every output
// it measures.
//
// Run it from the repository root; the launcher builds the benchmark and
// the matchserve binary from the checkout into .bench_build/:
//
//	bash perfbench/run.sh --workload sweep-kernels --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 a separate traced run reports the
// per-layer ones. The lines above it print every metric by name and unit.
//
// # End-to-end metrics
//
// An op is one simulated cell on the two sweeps and one campaign round
// trip on serve-warm.
//
//   - cells_per_s: campaign cells completed per host second of the timed
//     phase.
//   - op_p50_ms: median op latency; on the sweeps, the per-cell wall time
//     the core.Progress callback reports.
//   - op_tail_ms: the highest whole percentile that still has at least ten
//     samples beyond it (see tail); the percentile and sample count are
//     printed beside it. On the sweeps the samples are the run's cells. On
//     serve-warm the rule is applied to each window of 250 consecutive
//     round trips (p96) and the median over the run's windows is reported
//     (see windowTail): one host preemption of a few milliseconds lands in
//     about one round trip in fifty, so a pooled p99 over thousands of
//     round trips measured how often the host interrupted the run, not the
//     serving path.
//   - setup_s: workload start to the first timed op, the median of several
//     set-ups in one run: store open, server start, cache fill and warm-up,
//     not compilation.
//   - peak_rss_mb: peak resident memory of the process that simulates or
//     serves: this process on the sweeps, the matchserve child on
//     serve-warm.
//   - failed_frac: failed ops over attempted ops, printed on its own line
//     and carried by the attempted and failed fields of the result. A
//     failed op is a cell error, a failed output check or an HTTP error.
//     It is not in BENCHMARK.json's end-to-end list, whose metrics must
//     never be zero.
//
// # Workloads
//
// Each is a closed loop with one client and at most two workers (the
// number of CPUs of the machine the bounds were set on). The seed is the
// campaigns' fault seed (which rank fails, and when) on the sweeps and the
// order of the requests on serve-warm.
//
//   - sweep-kernels: CampaignRunner.Run over HPCCG, LULESH and CoMD x all
//     four designs x k = 0..1 at 64 ranks on Small input (24 cells),
//     observers off, a fresh disk-backed result store attached, so every
//     cell is a miss plus a write. It exists because the app kernels
//     dominate it; it is also the write side of the store.
//   - sweep-events: CampaignRunner.Run with a SweepMeter attached, which
//     meters every cell as matchserve does, over AMG, miniFE and miniVite x
//     all four designs x k = 0..2 (36 cells) under a ring detector with a
//     25 ms period, no store. It exists because scheduling and messaging
//     dominate it, and it runs the observer layer sweep-kernels leaves off.
//     It runs at 64 ranks rather than 128: at 128 one campaign takes about
//     a minute on two CPUs, too long for a run, and the split of host time
//     keeps scheduling and messaging on top at 64.
//   - serve-warm: a matchserve child on loopback. Set-up cold-fills a disk
//     cache with miniFE and AMG x all four designs x k = 0..1 at 16 ranks,
//     then restarts the server on that directory. Each timed op submits a
//     request with a new campaign ID whose every cell is cached (POST
//     /campaigns), follows its event stream until it is done, and fetches
//     GET /campaigns/{id}/results?format=json. No simulator layer runs; the
//     time goes to request decoding and validation, canonical hashing,
//     CellKey, store reads, rendering and HTTP. It is the read side of the
//     store.
//
// Every run measures a fixed amount of work set by --seconds alone, so that
// two builds of the program are measured on the same ops and percentiles.
// The sweeps run one whole campaign per 25 s of --seconds, at least one
// (a campaign takes about 25 s on a two-CPU host), so every run measures
// the same mix of cells. serve-warm runs 200 round trips per second of
// --seconds (about that long on a two-CPU host); the server keeps every
// campaign it ran, so fixed work also keeps its memory and GC load the
// same in every run, whatever the host's speed.
//
// # Output checks
//
// Every op is checked, and a failed check counts toward failed:
//
//   - every sweep cell completes, and its signature equals the
//     failure-free signature of the same app in the same campaign (any
//     seed);
//   - at the default seed, every sweep cell's Breakdown digest equals the
//     golden file testdata/golden-<workload>.json (regenerate with
//     -update-golden after an intended change of simulated results);
//   - every serve-warm result equals the cold-fill result for the same
//     cell, every request creates a new campaign, and GET /cache shows no
//     miss and no write after the warm restart (no cell is simulated);
//   - the store-backed campaigns of sweep-kernels miss and write every
//     cell;
//   - the exact counts of a traced run equal those an earlier traced run of
//     the same benchmark binary recorded for the same workload and seed
//     (kept under .bench_build/perfbench-counts), and repeated metered
//     campaigns count the same.
//
// # Per-layer metrics and the layer -> metric -> workload map
//
// The traced run sets the workload up as usual, then records the
// benchmark's own spans in memory (workload -> campaign or HTTP request ->
// cell, each cell reconstructed from its Progress wall time -> probe call)
// and writes them to .bench_build/perfbench-spans/ at the end. The
// program itself is not instrumented. On the sweeps it takes a
// runtime/pprof CPU profile of one campaign and attributes each sample to
// the innermost match/... package on its stack (profile.go): runtime
// channel, park and futex frames under simnet count as handoff, GC frames
// as gc. matchserve cannot be profiled from outside, so serve-warm's CPU
// split comes from an in-process replay of its traced requests (decode,
// validate, hash, CampaignRunner.Run on the warm store, encode) under the
// profiler. bench.trace_overhead_frac is the median traced time over the
// median untraced time, minus one, of the warm-up campaign (sweeps) or of a
// round trip (serve-warm), the traced and untraced ones alternating.
//
// Each layer metric is expected to move the named end-to-end metric on the
// named workload and to stay flat elsewhere:
//
//   - apps: apps.hpccg.step_us and apps.lulesh.step_us (host time per Step
//     in a one-rank run at Never placement with no faults, the app wrapped
//     through match.RegisterApp and its signature checked against the
//     unwrapped run), apps.<app>.cpu_share for all six apps and
//     appkit.cpu_share. They move cells_per_s and op_p50_ms on
//     sweep-kernels.
//   - simnet: simnet.dispatch_ns (a Proc.Sleep(0) round trip across 64
//     processes), simnet.event_ns (a Scheduler.AfterFunc event with no
//     processes), simnet.cpu_share, handoff.cpu_share and
//     simnet.host_ns_per_event (cell host time over events fired; on
//     serve-warm, of the cold fill replayed in-process). They move
//     cells_per_s and op_tail_ms on sweep-events first and sweep-kernels
//     second.
//   - mpi: mpi.send_ns (a 64-rank ring Send/Recv), mpi.allreduce64_us (64
//     ranks), mpi.sparse_exchange_us (128 ranks, SparseExchangeI64) and
//     mpi.cpu_share. They move cells_per_s on sweep-events.
//   - fti, with enc, rs and storage: fti.ckpt_l1_us and fti.ckpt_l4_us
//     (CheckpointAt on four ranks, each protecting four vectors of HPCCG's
//     Small local grid), fti.recover_us (Init plus Recover) and
//     fti.cpu_share. They move cells_per_s on sweep-kernels.
//   - designs (detect, fault, ckpt and the four runtimes): designs.cpu_share.
//   - obs and trace: obs.cpu_share and trace.cpu_share. They move
//     cells_per_s on sweep-events; on sweep-kernels, where observers are
//     off, the prediction is no change.
//   - core: core.cellkey_us, core.request_hash_us and core.cpu_share. They
//     move op_p50_ms on serve-warm.
//   - store: store.get_us (memory hit), store.get_disk_us (disk hit),
//     store.put_us (disk-backed write) and store.hit_ratio (1.0 on
//     serve-warm, read from GET /cache; 0 on sweep-kernels, from the
//     store's own statistics; 0 on sweep-events, which has no store).
//     Reads move serve-warm; writes move sweep-kernels, slightly.
//   - matchserve: serve.submit_ms and serve.results_ms, the per-call HTTP
//     latency of a warm round trip against a matchserve child with an
//     in-memory cache. They move op_p50_ms and op_tail_ms on serve-warm.
//   - Go runtime: gc.cpu_share. It moves peak_rss_mb and cells_per_s on
//     both sweeps.
//   - counts, exact, from the obs registries of one metered campaign
//     (sweeps) or the warm server's /metrics (serve-warm, where no cell is
//     simulated and every count is 0): obs.events_fired, obs.messages,
//     obs.msg_bytes, obs.collectives, obs.heartbeats, obs.checkpoints,
//     obs.ckpt_bytes and obs.restores.
//
// The traced run also prints whether the CPU split matches the workload
// design: the summed apps.*.cpu_share above handoff + simnet + mpi on
// sweep-kernels, and the reverse on sweep-events. That line describes the
// workloads; it is not an output check, since a faster kernel may flip it.
//
// # Relation to the other performance tooling
//
// This benchmark lives in its own module and depends on nothing in cmd/
// but the matchserve binary it drives. BenchmarkCampaignThroughput, the
// BENCH_trend.jsonl trajectory that matchbench appends to, and the
// per-layer "layers" record planned for matchbench (the ROADMAP's first
// open item) are separate and keep working as they do.
package main
