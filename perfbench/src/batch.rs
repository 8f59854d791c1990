//! Closed-loop batch workloads: one client re-executing one compiled
//! `Plan`, each solve interleaved with the benchmark's own serial loop of
//! the same recurrence, which is both the `vs_naive` anchor and the
//! oracle.

use crate::naive;
use crate::report::{Report, Timings};
use crate::setup::{put_setup_metrics, set_up, spec_text, SetupTimes};
use crate::span::Spans;
use crate::stats::{median, peak_rss_mb, Rng};
use dpgen_core::{ExecOpts, Plan, ProblemSpec, RunOutput};
use dpgen_problems::{Bandit3, EditDistance, Lcs};
use dpgen_runtime::{Probe, RunError, LANES};
use dpgen_tiling::tiling::{CellRef, RunCtx};
use dpgen_tiling::{TileVisitor, Tiling};
use std::time::{Duration, Instant};

/// Fewest solves a run makes, however long they take: enough for a
/// median with ten samples beyond it.
const MIN_SOLVES: usize = 21;
/// Fewest set-ups a run makes. After the first, set-ups are interleaved
/// with the solves, one per iteration while they take less than
/// [`SETUP_SHARE`] of the loop, so their median spans the same stretch of
/// the host's drift as the solves.
const MIN_SETUPS: usize = 9;
const SETUP_SHARE: f64 = 0.05;
/// Solves after which an untraced run reads `peak_rss_mb`: a fixed
/// count, so that a faster program is not charged for the extra solves
/// it fits in a run, while what each solve leaves behind still counts.
/// Fewer solves than this leave the figure to thread timing (see
/// `README.md`).
const RSS_SOLVES: usize = 150;

/// The recurrence a batch workload solves, with its seeded inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum Problem {
    Lcs { a: Vec<u8>, b: Vec<u8> },
    EditDistance { a: Vec<u8>, b: Vec<u8> },
    Bandit3 { n: i64, priors: [(f64, f64); 3] },
}

/// A batch workload: the problem, its tiling and its execution options.
#[derive(Debug, Clone)]
pub struct Batch {
    pub problem: Problem,
    /// Tile width of the measured plan.
    pub width: i64,
    /// Tile width that makes the whole lattice one tile, for workloads
    /// whose lattice fills its bounding box.
    pub single_width: Option<i64>,
    /// Ranks and threads; the probe at the goal is added per plan.
    pub opts: ExecOpts,
    /// Latency limit behind `slo_met_frac`.
    pub slo_ms: f64,
}

/// Per-solve numbers read from the run's own statistics.
#[derive(Debug, Clone, Copy, Default)]
struct Layers {
    init_us: f64,
    idle_frac: f64,
    rank_idle_frac: f64,
    steals: f64,
    lock_wait_us: f64,
    tiles: f64,
    mean_run_len: f64,
    buffer_reuse_frac: f64,
    bytes_sent: f64,
    messages: f64,
    retransmits: f64,
    edges_remote: f64,
    imbalance: f64,
}

fn layers<T: Copy>(out: &RunOutput<T>) -> Layers {
    let ranks = &out.per_rank;
    let sum = |f: &dyn Fn(&dpgen_runtime::RunStats) -> f64| -> f64 {
        ranks.iter().map(|r| f(&r.stats)).sum()
    };
    let idle: Vec<f64> = ranks.iter().map(|r| r.stats.idle_fraction()).collect();
    Layers {
        init_us: ranks
            .iter()
            .map(|r| r.stats.init_time.as_secs_f64() * 1e6)
            .fold(0.0, f64::max),
        idle_frac: idle.iter().sum::<f64>() / idle.len().max(1) as f64,
        rank_idle_frac: idle.iter().copied().fold(0.0, f64::max),
        steals: sum(&|s| s.steal_count as f64),
        lock_wait_us: sum(&|s| s.lock_wait_time.as_secs_f64() * 1e6),
        tiles: sum(&|s| s.tiles_executed as f64),
        mean_run_len: sum(&|s| s.cells_batched as f64) / sum(&|s| s.runs_batched as f64).max(1.0),
        buffer_reuse_frac: sum(&|s| s.tile_buffers_reused as f64)
            / sum(&|s| (s.tile_buffers_reused + s.tile_buffers_allocated) as f64).max(1.0),
        bytes_sent: out.bytes_sent() as f64,
        messages: out.comm_stats.iter().map(|c| c.msgs_sent()).sum::<u64>() as f64,
        retransmits: out.retransmits() as f64,
        edges_remote: out.edges_remote() as f64,
        imbalance: out.balance.as_ref().map_or(1.0, |b| b.imbalance()),
    }
}

/// One checked solve: the probed answer and the run's layer numbers.
struct Solve {
    answer: Option<f64>,
    layers: Layers,
}

impl Batch {
    /// The batch workload called `name`, on inputs made from `seed`.
    pub fn named(name: &str, seed: u64) -> Option<Batch> {
        let make = match name {
            "lcs_w48" => Batch::lcs_w48,
            "editdist_bigtile" => Batch::editdist_bigtile,
            "bandit3_hybrid" => Batch::bandit3_hybrid,
            _ => return None,
        };
        Some(make(seed))
    }

    /// LCS of two 2303-byte sequences in 48-wide tiles (2304 full tiles),
    /// batched kernel, 1 rank x 2 threads.
    pub fn lcs_w48(seed: u64) -> Batch {
        let mut rng = Rng::fork(seed, 1);
        Batch {
            problem: Problem::Lcs {
                a: rng.sequence(2303),
                b: rng.sequence(2303),
            },
            width: 48,
            single_width: Some(2304),
            opts: ExecOpts::new().threads(2),
            slo_ms: 500.0,
        }
    }

    /// Edit distance of two 4095-byte sequences in 1024-wide tiles (16
    /// tiles on 7 wavefronts), SIMD-batched kernel, 1 rank x 2 threads.
    pub fn editdist_bigtile(seed: u64) -> Batch {
        let mut rng = Rng::fork(seed, 2);
        Batch {
            problem: Problem::EditDistance {
                a: rng.sequence(4095),
                b: rng.sequence(4095),
            },
            width: 1024,
            single_width: Some(4096),
            opts: ExecOpts::new().threads(2),
            slo_ms: 500.0,
        }
    }

    /// The 3-arm Bernoulli bandit at N = 16 trials with seeded Beta
    /// priors, width 4, per-cell kernel, 2 ranks x 1 thread with the
    /// spec's slab balance over (s1, f1).
    pub fn bandit3_hybrid(seed: u64) -> Batch {
        let mut rng = Rng::fork(seed, 3);
        let mut prior = || (1.0 + rng.below(3) as f64, 1.0 + rng.below(3) as f64);
        let n = 16;
        Batch {
            problem: Problem::Bandit3 {
                n,
                priors: [prior(), prior(), prior()],
            },
            width: 4,
            // One tile of the simplex would allocate its whole 17^6 box.
            single_width: None,
            opts: ExecOpts::new().threads(1).ranks(2),
            slo_ms: 1000.0,
        }
    }

    fn spec(&self, width: i64) -> ProblemSpec {
        match &self.problem {
            Problem::Lcs { .. } => Lcs::spec(2, width),
            Problem::EditDistance { .. } => EditDistance::spec(width),
            Problem::Bandit3 { .. } => Bandit3::spec(width),
        }
    }

    fn params(&self) -> Vec<i64> {
        match &self.problem {
            Problem::Lcs { a, b } | Problem::EditDistance { a, b } => {
                vec![a.len() as i64, b.len() as i64]
            }
            Problem::Bandit3 { n, .. } => vec![*n],
        }
    }

    fn goal(&self) -> Vec<i64> {
        match &self.problem {
            Problem::Bandit3 { .. } => vec![0; 6],
            _ => self.params(),
        }
    }

    /// Lattice cells of one solve.
    pub fn cells(&self) -> u64 {
        match &self.problem {
            Problem::Lcs { a, b } | Problem::EditDistance { a, b } => {
                (a.len() as u64 + 1) * (b.len() as u64 + 1)
            }
            Problem::Bandit3 { n, .. } => naive::bandit3_cells(*n),
        }
    }

    fn execute(&self, plan: &Plan, opts: &ExecOpts) -> Result<Solve, RunError> {
        fn solve<T: Copy>(out: RunOutput<T>, value: impl Fn(T) -> f64) -> Solve {
            Solve {
                answer: out.probes[0].map(value),
                layers: layers(&out),
            }
        }
        // Alignment scores are small integers, exact in f64.
        let score = |v: i64| v as f64;
        Ok(match &self.problem {
            Problem::Lcs { a, b } => solve(plan.execute_batched(&Lcs::new(&[a, b]), opts)?, score),
            Problem::EditDistance { a, b } => {
                solve(plan.execute_batched(&EditDistance::new(a, b), opts)?, score)
            }
            Problem::Bandit3 { priors, .. } => solve(
                plan.execute(&Bandit3 { priors: *priors }.kernel(), opts)?,
                |v: f64| v,
            ),
        })
    }

    fn naive(&self) -> f64 {
        match &self.problem {
            Problem::Lcs { a, b } => naive::lcs(a, b) as f64,
            Problem::EditDistance { a, b } => naive::edit_distance(a, b) as f64,
            Problem::Bandit3 { n, priors } => naive::bandit3(*n, *priors),
        }
    }

    /// Run the naive loop once on each core the solve occupies (ranks x
    /// threads), concurrently, so that a neighbour taking a core slows
    /// the anchor as it slows the solve. Returns the common answer, or
    /// NaN when the copies disagree.
    fn naive_on_every_core(&self) -> f64 {
        let copies = self.opts.threads * self.opts.ranks;
        let answers: Vec<f64> = std::thread::scope(|s| {
            let others: Vec<_> = (1..copies).map(|_| s.spawn(|| self.naive())).collect();
            let mut answers = vec![self.naive()];
            answers.extend(
                others
                    .into_iter()
                    .map(|h| h.join().expect("naive loop panicked")),
            );
            answers
        });
        if answers.iter().all(|&a| a == answers[0]) {
            answers[0]
        } else {
            f64::NAN
        }
    }

    /// The reference answer every timed operation is checked against:
    /// the naive loop for the alignments, the problem's own dense solver
    /// for the bandit.
    fn oracle(&self) -> f64 {
        match &self.problem {
            Problem::Bandit3 { n, priors } => Bandit3 { priors: *priors }.solve_dense(*n),
            _ => self.naive(),
        }
    }

    fn agrees(&self, got: f64, want: f64) -> bool {
        match self.problem {
            Problem::Bandit3 { .. } => (got - want).abs() <= 1e-9,
            _ => got == want,
        }
    }
}

/// Counts cells through the run visitor without touching them.
struct NoOpVisitor(u64);

impl TileVisitor for NoOpVisitor {
    fn cell(&mut self, _cell: CellRef<'_>) {
        self.0 += 1;
    }
    fn run(&mut self, run: RunCtx<'_>) {
        self.0 += run.len as u64;
    }
}

/// Tiling layer walked from outside: partial-tile count and the cost per
/// cell of the run scanner and of the edge pack/unpack walk.
struct Walks {
    tiles_partial: f64,
    scan_ns_per_cell: f64,
    edge_ns_per_cell: f64,
}

fn walk_tiling(spans: &Spans, tiling: &Tiling, params: &[i64]) -> Walks {
    let mut point = tiling.make_point(params);
    let mut tiles = Vec::new();
    tiling.for_each_tile(&mut point, |t| tiles.push(t));
    let tiles_partial = tiles
        .iter()
        .filter(|t| !tiling.tile_is_full(t, &mut point))
        .count() as f64;
    // (source tile, edge) pairs whose destination tile exists.
    let mut edges = Vec::new();
    for t in &tiles {
        for (k, e) in tiling.edges().iter().enumerate() {
            if tiling.tile_in_space(&t.sub(&e.delta), &mut point) {
                edges.push((*t, k));
            }
        }
    }
    let (mut scan, mut edge) = (Vec::new(), Vec::new());
    for rep in 0..3 {
        let _g = spans.enter("tiling.scan_tile_runs", rep);
        let t = Instant::now();
        let mut v = NoOpVisitor(0);
        for tile in &tiles {
            tiling
                .scan_tile_runs(tile, &mut point, &mut v)
                .expect("a compiled plan's tiles scan");
        }
        scan.push(t.elapsed().as_nanos() as f64 / v.0.max(1) as f64);
        drop(_g);
        let _g = spans.enter("tiling.edge_walk", rep);
        let t = Instant::now();
        let mut n = 0u64;
        for (tile, k) in &edges {
            tiling.set_tile(tile, &mut point);
            tiling.edges()[*k]
                .for_each_cell(&mut point, |_| n += 1)
                .expect("a compiled plan's edges walk");
        }
        edge.push(t.elapsed().as_nanos() as f64 / n.max(1) as f64);
    }
    Walks {
        tiles_partial,
        scan_ns_per_cell: median(&scan),
        edge_ns_per_cell: median(&edge),
    }
}

/// Run one batch workload for `seconds` and fill `rep` with its
/// end-to-end metrics, or with its per-layer metrics when `traced`.
pub fn run(
    b: &Batch,
    seconds: f64,
    spans: &Spans,
    traced: bool,
    rep: &mut Report,
) -> Result<(), RunError> {
    let params = b.params();
    let opts = b.opts.clone().probe(Probe::at(&b.goal()));
    let text = spec_text(&b.spec(b.width));

    let (plan, first) = set_up(spans, 0, &text, &params, &opts)?;
    let mut setups: Vec<SetupTimes> = vec![first];
    let oracle = b.oracle();

    // Traced runs walk the tiling from outside and, where the lattice is
    // a box, also solve it serially both tiled and as one tile, which
    // splits per-tile overhead from the kernel.
    let walks = traced.then(|| walk_tiling(spans, plan.tiling(), &params));
    let serial = ExecOpts::new().threads(1).probe(Probe::at(&b.goal()));
    let single = match b.single_width {
        Some(w) if traced => {
            let text = spec_text(&b.spec(w));
            Some(set_up(&Spans::new(false), 0, &text, &params, &serial)?.0)
        }
        _ => None,
    };

    let cells = b.cells() as f64;
    let (mut solve_ms, mut lat_ms, mut ratio) = (Vec::new(), Vec::new(), Vec::new());
    let (mut naive_ms, mut single_ms, mut tiled_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let mut per_solve: Vec<Layers> = Vec::new();
    let (mut solves, mut slo_met) = (0usize, 0usize);
    let mut rss_mb = 0.0;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut i = 0u64;
    while solves < MIN_SOLVES
        || (!traced && solves < RSS_SOLVES)
        || setups.len() < MIN_SETUPS
        || Instant::now() < deadline
    {
        let spent: f64 = setups.iter().map(SetupTimes::total_s).sum();
        if setups.len() < MIN_SETUPS || spent < SETUP_SHARE * start.elapsed().as_secs_f64() {
            setups.push(set_up(spans, setups.len() as u64, &text, &params, &opts)?.1);
        }
        // Alternate which side goes first and, in traced runs, whether
        // this solve records spans.
        let on = traced && i.is_multiple_of(2);
        let _it = spans.enter_if(on, "iteration", i);
        let naive_side = || {
            let _g = spans.enter_if(on, "naive", i);
            let t = Instant::now();
            let v = b.naive_on_every_core();
            (v, t.elapsed().as_secs_f64() * 1e3)
        };
        let solve_side = || {
            let _g = spans.enter_if(on, "solve", i);
            let t = Instant::now();
            let s = {
                let _g = spans.enter_if(on, "plan.execute", i);
                b.execute(&plan, &opts)
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let _g = spans.enter_if(on, "check", i);
            let ok = matches!(&s, Ok(s) if s.answer.is_some_and(|a| b.agrees(a, oracle)));
            (s, ms, ok, t.elapsed().as_secs_f64() * 1e3)
        };
        let ((n, n_ms), (s, s_ms, ok, l_ms)) = if i.is_multiple_of(2) {
            let s = solve_side();
            (naive_side(), s)
        } else {
            let n = naive_side();
            (n, solve_side())
        };
        rep.check(b.agrees(n, oracle));
        rep.check(ok);
        solves += 1;
        if solves == RSS_SOLVES {
            rss_mb = peak_rss_mb();
        }
        if ok && l_ms <= b.slo_ms {
            slo_met += 1;
        }
        if ok {
            solve_ms.push(s_ms);
            lat_ms.push(l_ms);
            naive_ms.push(n_ms);
            ratio.push(n_ms / s_ms);
            if let Ok(s) = s {
                per_solve.push(s.layers);
            }
            if traced {
                let side = if on { &mut traced_ms } else { &mut untraced_ms };
                side.push(s_ms);
            }
        }
        if let Some(single) = &single {
            for (p, span, out) in [
                (&plan, "plan.execute.serial", &mut tiled_ms),
                (single, "plan.execute.single_tile", &mut single_ms),
            ] {
                let _g = spans.enter_if(on, span, i);
                let t = Instant::now();
                let s = b.execute(p, &serial);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let ok = matches!(&s, Ok(s) if s.answer.is_some_and(|a| b.agrees(a, oracle)));
                rep.check(ok);
                if ok {
                    out.push(ms);
                }
            }
        }
        i += 1;
    }

    if solve_ms.is_empty() {
        return Ok(());
    }
    let totals: Vec<f64> = setups.iter().map(SetupTimes::total_s).collect();
    rep.put_timings(
        &Timings {
            cells_per_s: cells / (median(&solve_ms) / 1e3),
            vs_naive: median(&ratio),
            setup_s: median(&totals),
            slo_met_frac: slo_met as f64 / solves as f64,
            peak_rss_mb: rss_mb,
            solve_ms,
            latency_ms: lat_ms,
        },
        traced,
    );
    if !traced {
        return Ok(());
    }

    let done = spans.finished();
    put_setup_metrics(rep, &done);
    let med = |f: fn(&Layers) -> f64| median(&per_solve.iter().map(f).collect::<Vec<_>>());
    let tiles = med(|l| l.tiles);
    if !single_ms.is_empty() && !tiled_ms.is_empty() {
        let (single_p50, tiled_p50) = (median(&single_ms), median(&tiled_ms));
        rep.put(
            "runtime.tile_overhead_us",
            (tiled_p50 - single_p50) * 1e3 / tiles.max(1.0),
            "us",
        );
        rep.put(
            "runtime.tile_overhead_ratio",
            tiled_p50 / single_p50,
            "ratio",
        );
        rep.put("kernel.ns_per_cell", single_p50 * 1e6 / cells, "ns");
    }
    if let Some(w) = &walks {
        rep.put("tiling.scan_runs_ns_per_cell", w.scan_ns_per_cell, "ns");
        rep.put("tiling.edge_walk_ns_per_cell", w.edge_ns_per_cell, "ns");
        rep.put("runtime.tiles_partial", w.tiles_partial, "count");
    }
    rep.put("naive.ns_per_cell", median(&naive_ms) * 1e6 / cells, "ns");
    rep.put("simd.lanes", LANES as f64, "count");
    rep.put("runtime.init_us", med(|l| l.init_us), "us");
    rep.put("runtime.idle_frac", med(|l| l.idle_frac), "ratio");
    rep.put("runtime.steal_count", med(|l| l.steals), "count");
    rep.put("runtime.lock_wait_us", med(|l| l.lock_wait_us), "us");
    rep.put("runtime.tiles", tiles, "count");
    rep.put("runtime.mean_run_len", med(|l| l.mean_run_len), "cells");
    rep.put(
        "runtime.buffer_reuse_frac",
        med(|l| l.buffer_reuse_frac),
        "ratio",
    );
    rep.put("mpisim.bytes_sent", med(|l| l.bytes_sent), "bytes");
    rep.put("mpisim.messages", med(|l| l.messages), "count");
    rep.put("mpisim.retransmits", med(|l| l.retransmits), "count");
    rep.put("runtime.edges_remote", med(|l| l.edges_remote), "count");
    rep.put("loadbalance.imbalance", med(|l| l.imbalance), "ratio");
    rep.put("runtime.rank_idle_frac", med(|l| l.rank_idle_frac), "ratio");
    if !traced_ms.is_empty() && !untraced_ms.is_empty() {
        rep.put(
            "trace.overhead",
            median(&traced_ms) / median(&untraced_ms),
            "ratio",
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        for make in [
            Batch::lcs_w48,
            Batch::editdist_bigtile,
            Batch::bandit3_hybrid,
        ] {
            assert_eq!(make(5).problem, make(5).problem);
            assert_ne!(make(5).problem, make(6).problem);
        }
        assert_eq!(Batch::lcs_w48(1).cells(), 2304 * 2304);
        assert_eq!(Batch::editdist_bigtile(1).cells(), 4096 * 4096);
    }

    #[test]
    fn small_instances_run_checked() {
        let mut rng = Rng::new(9);
        let small = [
            Batch {
                problem: Problem::Lcs {
                    a: rng.sequence(95),
                    b: rng.sequence(95),
                },
                width: 8,
                single_width: Some(96),
                opts: ExecOpts::new().threads(2),
                slo_ms: 1e3,
            },
            Batch {
                problem: Problem::EditDistance {
                    a: rng.sequence(63),
                    b: rng.sequence(63),
                },
                width: 16,
                single_width: Some(64),
                opts: ExecOpts::new().threads(2),
                slo_ms: 1e3,
            },
            Batch {
                problem: Problem::Bandit3 {
                    n: 5,
                    priors: [(1.0, 2.0), (2.0, 1.0), (1.0, 1.0)],
                },
                width: 2,
                single_width: None,
                opts: ExecOpts::new().threads(1).ranks(2),
                slo_ms: 1e3,
            },
        ];
        for b in &small {
            for traced in [false, true] {
                let spans = Spans::new(traced);
                let mut rep = Report::default();
                run(b, 0.05, &spans, traced, &mut rep).unwrap();
                assert!(rep.correct(), "{:?}", b.problem);
                assert!(rep.attempted >= 2 * MIN_SOLVES as u64);
            }
        }
    }
}
