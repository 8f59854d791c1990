//! `serve_mixed`: an open loop of seeded Poisson arrivals from one
//! generator thread into a resident `dpgen_serve::Engine`.
//!
//! A fixed catalogue of `specgen` tenant specs with Zipf popularity is
//! larger than the engine's plan cache, so cache hits run beside compiles
//! and evictions. The seed draws the arrival times, the tenant of each job
//! and the lattice point it probes, which is checked against
//! `specgen::reference_eval`. Every job is timed from the moment it was
//! due, so a submission that compiles on the generator thread delays
//! every arrival behind it. The naive anchor is the reference interpreter
//! of the job's tenant, timed on the generator thread while the engine
//! executes the job, against the job's latency through the engine.

use crate::report::{Report, Timings};
use crate::setup::{put_setup_metrics, set_up, spec_text};
use crate::span::Spans;
use crate::stats::{median, peak_rss_mb, tail, Rng};
use dpgen_core::specgen::{reference_eval, NaiveReference};
use dpgen_core::{ExecOpts, GeneratedSpec, SpecGen};
use dpgen_runtime::{Probe, RunError, LANES};
use dpgen_serve::{Engine, EngineConfig, JobHandle, JobOutcome};
use std::sync::mpsc;
use std::time::{Duration, Instant};

// The traffic's parameters are assumptions; `README.md` gives the basis
// of each.

/// Distinct tenant specs: the first specs of `specgen`'s stream at
/// [`CATALOGUE_SEED`], most popular first.
pub const POPULATION: usize = 192;
/// The default seed of the repository's `serve_load` generator. The
/// catalogue is fixed so that runs with different seeds serve the same
/// tenants.
const CATALOGUE_SEED: u64 = 0xC0FFEE;
/// Compiled plans the engine keeps: half the catalogue.
pub const CACHE: usize = 96;
/// Zipf exponent of tenant popularity, within the 0.64-0.83 that
/// Breslau et al. (INFOCOM 1999) fit to web-proxy request traces.
const ZIPF: f64 = 0.7;
/// Mean arrivals per second: about a tenth of what the single executor
/// can serve on this catalogue, so jobs seldom queue behind each other
/// and per-job fixed costs dominate their latency. Each run prints the
/// executor's measured busy share.
pub const RATE: f64 = 200.0;
/// Arrivals before this offset warm the cache and are checked but not
/// timed.
const WARMUP_S: f64 = 1.0;
/// Latency limit behind `slo_met_frac`.
pub const SLO_MS: f64 = 25.0;
/// Set-ups of each tenant spec: one at onboarding, the rest in rounds
/// over the catalogue after the load, in a warmed process. `setup_s` is
/// the median over tenants of each tenant's median.
const SETUPS_PER_SPEC: usize = 5;

/// One scheduled job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Seconds after the loop starts when the job is due.
    pub due_s: f64,
    /// Index into the population.
    pub tenant: usize,
    /// Chooses the probed lattice point.
    pub pick: u64,
}

/// The traffic: tenant catalogue and seeded arrival schedule.
#[derive(Debug, Clone)]
pub struct Mix {
    pub specs: Vec<GeneratedSpec>,
    pub arrivals: Vec<Arrival>,
}

/// The traffic for `seed` over a `seconds`-long measured window.
pub fn mix(seed: u64, seconds: f64) -> Mix {
    let mut gen = SpecGen::new(CATALOGUE_SEED);
    let specs = (0..POPULATION).map(|_| gen.next_spec()).collect();
    let weights: Vec<f64> = (0..POPULATION)
        .map(|k| 1.0 / ((k + 1) as f64).powf(ZIPF))
        .scan(0.0, |acc, w| {
            *acc += w;
            Some(*acc)
        })
        .collect();
    let total = *weights.last().expect("nonempty population");
    let mut rng = Rng::fork(seed, 5);
    let mut arrivals = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / RATE;
        if t >= WARMUP_S + seconds {
            break;
        }
        let u = rng.unit() * total;
        arrivals.push(Arrival {
            due_s: t,
            tenant: weights.partition_point(|&c| c <= u).min(POPULATION - 1),
            pick: rng.next_u64(),
        });
    }
    Mix { specs, arrivals }
}

/// What happened to one job, in seconds after the loop started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobTimes {
    pub due_s: f64,
    /// When the generator started submitting it.
    pub sent_s: f64,
    /// When its checked result reached the client; `None` if it failed,
    /// was rejected or returned a wrong value.
    pub done_s: Option<f64>,
}

/// Open-loop accounting of one job: latency from its due time (`None`
/// when it failed), how late the generator sent it, and whether it met
/// the latency limit. A failed job misses the limit.
pub fn account(job: JobTimes, slo_ms: f64) -> (Option<f64>, f64, bool) {
    let latency_ms = job.done_s.map(|d| (d - job.due_s) * 1e3);
    let late_ms = ((job.sent_s - job.due_s) * 1e3).max(0.0);
    (latency_ms, late_ms, latency_ms.is_some_and(|l| l <= slo_ms))
}

/// A job as the generator saw it.
struct Sent {
    sent_s: f64,
    submit_ms: f64,
    hit: bool,
    expected: u64,
    /// The reference interpreter's time on the job's tenant, timed while
    /// the engine executed the job; `None` when it could not finish
    /// before the next arrival was due.
    anchor_ms: Option<f64>,
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Run `serve_mixed` for `seconds` of measured arrivals.
pub fn run(
    seed: u64,
    seconds: f64,
    spans: &Spans,
    traced: bool,
    rep: &mut Report,
) -> Result<(), RunError> {
    let traffic = mix(seed, seconds);
    let job_opts = ExecOpts::new().threads(1);

    // Onboarding: each tenant's spec text to a warmed plan outside the
    // engine (the set-up layers), its reference values (the oracle), and
    // one timed run of the reference interpreter.
    let mut setups: Vec<Vec<f64>> = Vec::new();
    let mut refs: Vec<NaiveReference> = Vec::new();
    let mut ref_ms: Vec<f64> = Vec::new();
    for (k, gs) in traffic.specs.iter().enumerate() {
        let (_, t) = set_up(
            spans,
            k as u64,
            &spec_text(&gs.spec),
            &[gs.param],
            &job_opts,
        )?;
        setups.push(vec![t.total_s()]);
        refs.push(reference_eval(&gs.spec, gs.param).expect("generated specs are bounded"));
        let _g = spans.enter("naive.reference_eval", k as u64);
        let t = Instant::now();
        let again = reference_eval(&gs.spec, gs.param);
        ref_ms.push(t.elapsed().as_secs_f64() * 1e3);
        rep.check(again.is_ok_and(|r| r.values == refs[k].values));
    }

    let engine = Engine::new(EngineConfig {
        workers: 1,
        cache_capacity: CACHE,
        max_cells: crate::setup::MAX_CELLS,
        opts: job_opts.clone(),
    });
    let (tx, rx) = mpsc::channel::<(usize, JobHandle)>();
    let mut sent: Vec<Option<Sent>> = Vec::new();
    let mut evictions_at_warmup = None;
    let t0 = Instant::now();
    let completed: Vec<(usize, f64, Result<JobOutcome, RunError>)> = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut done = Vec::new();
            for (i, handle) in rx {
                let _g = spans.enter_if(traced && i.is_multiple_of(2), "serve.wait", i as u64);
                let r = handle.wait();
                done.push((i, t0.elapsed().as_secs_f64(), r));
            }
            done
        });
        for (i, a) in traffic.arrivals.iter().enumerate() {
            sleep_until(t0 + Duration::from_secs_f64(a.due_s));
            if a.due_s >= WARMUP_S && evictions_at_warmup.is_none() {
                evictions_at_warmup = Some(engine.cache().evictions());
            }
            let on = traced && i.is_multiple_of(2);
            let sent_s = t0.elapsed().as_secs_f64();
            let gs = &traffic.specs[a.tenant];
            let points = &refs[a.tenant].points;
            let point = &points[(a.pick % points.len() as u64) as usize];
            let expected = refs[a.tenant].values[point];
            let submitted = {
                let _g = spans.enter_if(on, "serve.submit", i as u64);
                let opts = job_opts.clone().probe(Probe::at(point));
                engine.submit_generated(gs, Some(opts))
            };
            let submit_ms = (t0.elapsed().as_secs_f64() - sent_s) * 1e3;
            let Ok(handle) = submitted else {
                sent.push(None);
                continue;
            };
            let hit = handle.cache_hit();
            tx.send((i, handle)).expect("collector is running");
            // The anchor, side by side with the engine executing the job
            // on the other core, when it should end before the next
            // arrival is due.
            let next_due = traffic
                .arrivals
                .get(i + 1)
                .map_or(f64::INFINITY, |n| n.due_s);
            let slack_s = next_due - t0.elapsed().as_secs_f64();
            let anchor_ms = (slack_s * 1e3 > 2.0 * ref_ms[a.tenant]).then(|| {
                let _g = spans.enter_if(on, "naive.reference_eval", i as u64);
                let t = Instant::now();
                let r = reference_eval(&gs.spec, gs.param);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                rep.check(r.is_ok_and(|r| r.values.get(point) == Some(&expected)));
                ms
            });
            sent.push(Some(Sent {
                sent_s,
                submit_ms,
                hit,
                expected,
                anchor_ms,
            }));
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    let evictions = engine.cache().evictions() - evictions_at_warmup.unwrap_or(0);
    drop(engine);
    // The remaining set-ups, after the load, in a warmed process and in
    // rounds over the catalogue.
    for _ in 1..SETUPS_PER_SPEC {
        for (k, gs) in traffic.specs.iter().enumerate() {
            let text = spec_text(&gs.spec);
            let (_, t) = set_up(spans, k as u64, &text, &[gs.param], &job_opts)?;
            setups[k].push(t.total_s());
        }
    }
    let setup_s: Vec<f64> = setups.iter().map(|t| median(t)).collect();

    let mut done_at: Vec<Option<(f64, JobOutcome)>> = vec![None; traffic.arrivals.len()];
    for (i, at, r) in completed {
        if let Ok(out) = r {
            done_at[i] = Some((at, out));
        }
    }
    let (mut latency, mut late, mut exec, mut queue) = (vec![], vec![], vec![], vec![]);
    let (mut compile, mut rate) = (vec![], vec![]);
    // The naive anchor against the served path: over the measured jobs
    // that have an anchor, the reference interpreter's time ÷ the job's
    // latency from its due time.
    let (mut naive_total, mut served_total, mut anchored) = (0.0, 0.0, 0usize);
    let (mut traced_lat, mut untraced_lat) = (vec![], vec![]);
    let (mut measured, mut met, mut hits) = (0usize, 0usize, 0usize);
    for (i, a) in traffic.arrivals.iter().enumerate() {
        let job = sent[i].as_ref();
        let outcome = done_at[i]
            .as_ref()
            .filter(|(_, out)| job.is_some_and(|j| out.probes.first() == Some(&Some(j.expected))));
        rep.check(outcome.is_some());
        if a.due_s < WARMUP_S {
            continue;
        }
        measured += 1;
        let times = JobTimes {
            due_s: a.due_s,
            sent_s: job.map_or(a.due_s, |j| j.sent_s),
            done_s: outcome.map(|(at, _)| *at),
        };
        let (lat, gen_late, ok) = account(times, SLO_MS);
        met += ok as usize;
        late.push(gen_late);
        if let Some(l) = lat {
            latency.push(l);
            if let Some(ms) = job.and_then(|j| j.anchor_ms) {
                naive_total += ms;
                served_total += l;
                anchored += 1;
            }
            // Spans wrap the submission and the wait of even jobs.
            let side = if i.is_multiple_of(2) {
                &mut traced_lat
            } else {
                &mut untraced_lat
            };
            side.push(l);
        }
        if let Some(j) = job {
            if j.hit {
                hits += 1;
            } else {
                compile.push(j.submit_ms);
            }
        }
        if let Some((_, out)) = outcome {
            let ms = out.exec_time.as_secs_f64() * 1e3;
            exec.push(ms);
            queue.push((out.latency - out.exec_time).as_secs_f64() * 1e3);
            rate.push(out.cells as f64 / (ms / 1e3));
        }
    }
    if exec.is_empty() || latency.is_empty() || anchored == 0 {
        return Ok(());
    }

    let busy = exec.iter().sum::<f64>() / 1e3 / seconds;
    rep.notes.push(format!(
        "serve_mixed: {measured} measured jobs ({anchored} with an anchor) at {RATE}/s, \
         executor busy {busy:.3} of the window, {POPULATION} tenants, cache {CACHE} \
         (hit rate {:.3}), latency limit {SLO_MS} ms",
        hits as f64 / measured as f64,
    ));
    let (queue_p50, exec_p50) = (median(&queue), median(&exec));
    rep.put_timings(
        &Timings {
            cells_per_s: median(&rate),
            vs_naive: naive_total / served_total,
            setup_s: median(&setup_s),
            slo_met_frac: met as f64 / measured as f64,
            peak_rss_mb: peak_rss_mb(),
            solve_ms: exec,
            latency_ms: latency,
        },
        traced,
    );
    if !traced {
        return Ok(());
    }

    let done = spans.finished();
    put_setup_metrics(rep, &done);
    let per_cell: Vec<f64> = (0..POPULATION)
        .map(|k| ref_ms[k] * 1e6 / refs[k].points.len().max(1) as f64)
        .collect();
    rep.put("naive.ns_per_cell", median(&per_cell), "ns");
    rep.put("simd.lanes", LANES as f64, "count");
    if !compile.is_empty() {
        rep.put("serve.compile_ms_p50", median(&compile), "ms");
        rep.put_tail("serve.compile_ms_tail", tail(&compile), "ms");
    }
    rep.put("serve.hit_rate", hits as f64 / measured as f64, "ratio");
    rep.put("serve.evictions", evictions as f64, "count");
    rep.put("serve.queue_wait_ms_p50", queue_p50, "ms");
    rep.put("serve.exec_ms_p50", exec_p50, "ms");
    rep.put_tail("serve.gen_late_ms_tail", tail(&late), "ms");
    if !traced_lat.is_empty() && !untraced_lat.is_empty() {
        rep.put(
            "trace.overhead",
            median(&traced_lat) / median(&untraced_lat),
            "ratio",
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_follows_the_seed() {
        let a = mix(3, 0.5);
        let b = mix(3, 0.5);
        let c = mix(4, 0.5);
        assert_eq!(a.arrivals, b.arrivals);
        assert_ne!(a.arrivals, c.arrivals);
        assert_eq!(a.specs, c.specs, "the catalogue is fixed");
        assert_eq!(a.specs.len(), POPULATION);
        // Poisson arrivals at RATE over the warm-up plus the window.
        let n = a.arrivals.len() as f64;
        let want = RATE * (WARMUP_S + 0.5);
        assert!((n - want).abs() < 5.0 * want.sqrt(), "{n} arrivals");
        assert!(a.arrivals.windows(2).all(|w| w[0].due_s < w[1].due_s));
        // Popularity is skewed toward the first tenants.
        let first = a.arrivals.iter().filter(|x| x.tenant == 0).count();
        let last = a
            .arrivals
            .iter()
            .filter(|x| x.tenant == POPULATION - 1)
            .count();
        assert!(first > 4 * last.max(1));
    }

    #[test]
    fn lateness_counts_from_the_due_time() {
        // A stalled generator sends a job 500 ms late; it runs in 100 ms.
        let stalled = JobTimes {
            due_s: 1.0,
            sent_s: 1.5,
            done_s: Some(1.6),
        };
        let (lat, late, ok) = account(stalled, 25.0);
        assert!(
            (lat.unwrap() - 600.0).abs() < 1e-6,
            "latency includes the stall"
        );
        assert!((late - 500.0).abs() < 1e-6);
        assert!(!ok);
        // On time and fast.
        let prompt = JobTimes {
            due_s: 2.0,
            sent_s: 2.0,
            done_s: Some(2.01),
        };
        let (lat, late, ok) = account(prompt, 25.0);
        assert!((lat.unwrap() - 10.0).abs() < 1e-6);
        assert_eq!(late, 0.0);
        assert!(ok);
        // A failed job has no latency and misses the limit.
        let failed = JobTimes {
            due_s: 3.0,
            sent_s: 3.0,
            done_s: None,
        };
        assert_eq!(account(failed, 25.0), (None, 0.0, false));
    }

    #[test]
    fn short_run_is_checked() {
        for traced in [false, true] {
            let spans = Spans::new(traced);
            let mut rep = Report::default();
            run(1, 0.3, &spans, traced, &mut rep).unwrap();
            assert!(rep.correct());
            assert!(rep.attempted as f64 > RATE);
        }
    }
}
