//! The end-to-end run: one workload, one client, a closed loop (the
//! next job is submitted only after the previous one reported), tracing
//! off. A run times a **fixed number of whole passes** — the workload's
//! count for a 20 s run, scaled by `--seconds` — so every run ranks the
//! same number of samples of the same job mix however fast the host or
//! the code is, and no statistic depends on how many passes fitted.
//!
//! **A job's latency is the lower quartile of its wall times over the
//! run's passes**; `job_p50_ms` and `job_tail_ms` are percentiles of
//! those across the job mix, and `jobs_per_s` is the jobs of a pass over
//! the lower-quartile pass time. The reason is the host. It has slow
//! phases of tens of seconds to minutes in which some jobs run at full
//! speed and others 30-100 % slower, and spikes that hit one job in a
//! hundred. Over ten 20 s runs of `corpus12` on ten seeds, one of them
//! wholly inside such a phase, the spread (quartile distance over
//! median) of the mix's median was 13 % over all samples pooled, 9 %
//! over per-job medians, 6.5 % over per-job lower quartiles and 3 % over
//! per-job minima; the one slow run read +41 %, +21 % and +3 % by the
//! last three. The pooled 99th percentile spread by 38 %. A regression
//! bound must be wider than the spread of what it guards, and the driver
//! caps it at 25 % and rejects a benchmark whose spread exceeds it. The
//! lower quartile is the least filtering that holds that with room to
//! spare. It is a quantile, so it does not drift with the number of
//! passes as a minimum does — and the number is fixed anyway.
//!
//! What the filter hides — a job that got slower in fewer than three
//! quarters of its runs — is reported unbounded beside the metrics:
//! `raw_p50_ms`, `raw_p99_ms` and `raw_jobs_per_s` are over all timed
//! jobs and the whole loop, unfiltered. The traced run reports the
//! first two and the per-job minimum as per-layer metrics.

use crate::inputs::{setup, Inputs};
use crate::runner::{Checker, Runner};
use crate::spans::Tracer;
use crate::spec::{spec, WorkloadSpec};
use crate::stats::{self, median, percentile};
use std::collections::BTreeMap;
use std::time::Instant;

/// Repetitions of the set-up routine; `setup_s` is their median. At
/// least [`SETUP_REPS`], and more (up to [`SETUP_REPS_MAX`]) while they
/// have taken less than two seconds together: a 20 ms set-up needs more
/// repetitions for a steady median than a 130 ms one.
pub const SETUP_REPS: usize = 5;
pub const SETUP_REPS_MAX: usize = 25;
/// Jobs of a `--smoke` pass (the daemon stream keeps three times as
/// many lines, so it still resubmits back to back).
pub const SMOKE_JOBS: usize = 3;
/// A job's latency is this percentile (nearest rank) of its wall times
/// over the run's passes.
pub const JOB_PCT: f64 = 25.0;
/// `job_tail_ms` is this percentile (nearest rank) across the job mix:
/// the slowest of 12, 8 or 6 jobs, the fourth slowest of the daemon
/// stream's 62. Each is a quartile of as many samples as the run has
/// passes, so the rank needs no further samples beyond it.
pub const TAIL_PCT: f64 = 95.0;
/// A run stops early, between passes, once it has measured for this
/// many times `--seconds`: the planned passes are sized for about 0.85
/// of it, and a host slow enough to need twice that must not push the
/// run past the driver's time limit.
pub const OVERRUN: f64 = 1.6;

pub struct RunArgs {
    pub workload: &'static WorkloadSpec,
    pub seed: u64,
    pub seconds: f64,
    /// Full-size set-up, then one short, unwarmed pass: checks that
    /// everything runs and every metric is reported, measures nothing.
    pub smoke: bool,
}

pub struct E2eRun {
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
    /// Timed jobs behind the latency metrics, the passes they made and
    /// the passes planned (more only when the run hit [`OVERRUN`]).
    pub samples: usize,
    pub passes: usize,
    pub planned: usize,
    /// Wall time of the timed loop, and the share of it spent outside
    /// jobs (starting a daemon per pass, judging each report).
    pub timed_s: f64,
    pub harness_share: f64,
    /// Median and 99th percentile of all timed jobs, and all of them
    /// over the loop's wall time: unfiltered.
    pub raw_p50_ms: f64,
    pub raw_p99_ms: f64,
    pub raw_jobs_per_s: f64,
    pub decision_digest: u64,
    /// The end-to-end metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Runs the set-up routine `min_reps` times, and on up to `max_reps`
/// while the repetitions have taken less than two seconds together;
/// returns the last inputs and each repetition's seconds.
pub fn timed_setup(
    workload: &str,
    seed: u64,
    min_reps: usize,
    max_reps: usize,
) -> (Inputs, Vec<f64>) {
    let mut secs = Vec::new();
    loop {
        let t = Instant::now();
        let inputs = setup(workload, seed);
        secs.push(t.elapsed().as_secs_f64());
        let more = secs.len() < max_reps && secs.iter().sum::<f64>() < 2.0;
        if secs.len() >= min_reps && !more {
            return (inputs, secs);
        }
    }
}

/// Timed passes of this run: the workload's count per
/// `BENCHMARK.json`'s `run_seconds`, scaled to `seconds`; one under
/// `--smoke`.
pub fn planned_passes(inputs: &Inputs, args: &RunArgs) -> usize {
    if args.smoke {
        return 1;
    }
    let scaled = inputs.passes as f64 * args.seconds / spec().run_seconds;
    (scaled.round() as usize).max(1)
}

/// One pass as job indices, cut short under `--smoke`.
pub fn pass_of(inputs: &Inputs, smoke: bool) -> Vec<usize> {
    let cap = match (smoke, inputs.daemon()) {
        (false, _) => usize::MAX,
        (true, false) => SMOKE_JOBS,
        (true, true) => SMOKE_JOBS * crate::inputs::ROUNDS,
    };
    inputs.pass.iter().copied().take(cap).collect()
}

/// Warm-up before timing: up to one pass, capped at a quarter of the
/// measuring time (a 72-router pass takes seconds). The jobs are judged
/// like any other, but their times are dropped.
pub fn warm_up(runner: &mut Runner, checker: &mut Checker, pass: &[usize], seconds: f64) {
    let mut tracer = Tracer::new(false);
    let t = Instant::now();
    runner.begin_pass();
    for &idx in pass {
        if t.elapsed().as_secs_f64() > seconds / 4.0 {
            break;
        }
        let run = runner.run(idx, &mut tracer, "");
        checker.judge(idx, run);
    }
}

/// The [`JOB_PCT`] percentile of an unsorted sample.
pub fn lower_quartile(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    stats::sort(&mut sorted);
    percentile(&sorted, JOB_PCT)
}

/// `[p50, tail]` across the job mix: each position of the pass at the
/// lower quartile of its wall times over the passes.
pub fn latency(by_position: &[Vec<f64>]) -> [f64; 2] {
    // A position that never succeeded has no latency, nor has the mix.
    if by_position.iter().any(|walls| walls.is_empty()) {
        return [f64::NAN; 2];
    }
    let mut jobs: Vec<f64> = by_position.iter().map(|w| lower_quartile(w)).collect();
    stats::sort(&mut jobs);
    [median(&jobs), percentile(&jobs, TAIL_PCT)]
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn run(args: &RunArgs) -> E2eRun {
    let w = args.workload;
    let (min_reps, max_reps) = if args.smoke {
        (1, 1)
    } else {
        (SETUP_REPS, SETUP_REPS_MAX)
    };
    let (inputs, setup_secs) = timed_setup(&w.name, args.seed, min_reps, max_reps);
    let pass = pass_of(&inputs, args.smoke);
    let planned = planned_passes(&inputs, args);
    let mut checker = Checker::new(&inputs);
    let mut runner = Runner::new(&inputs);
    let mut tracer = Tracer::new(false);

    if !args.smoke {
        warm_up(&mut runner, &mut checker, &pass, args.seconds);
    }

    // Wall times of the jobs that counted, by position in the pass, and
    // of each whole pass (its jobs, its daemon, the judging).
    let mut walls: Vec<Vec<f64>> = vec![Vec::with_capacity(planned); pass.len()];
    let mut pass_secs: Vec<f64> = Vec::with_capacity(planned);
    let t = Instant::now();
    while pass_secs.len() < planned && t.elapsed().as_secs_f64() < OVERRUN * args.seconds.max(1.0) {
        let pass_started = Instant::now();
        runner.begin_pass();
        for (at, &idx) in pass.iter().enumerate() {
            let run = runner.run(idx, &mut tracer, "");
            walls[at].extend(checker.judge(idx, run));
        }
        pass_secs.push(pass_started.elapsed().as_secs_f64());
    }
    let timed_s = t.elapsed().as_secs_f64();
    // Before the checker's own repairs and verifications raise it.
    let peak_rss_mb = peak_rss_mb();
    let decision_digest = checker.finish();

    let [p50, tail] = latency(&walls);
    let mut all: Vec<f64> = walls.concat();
    stats::sort(&mut all);
    // A pass with a failed job is short of it; the run is incorrect then.
    let jobs_per_s = pass.len() as f64 / lower_quartile(&pass_secs);
    let metrics = BTreeMap::from([
        ("job_p50_ms", p50),
        ("job_tail_ms", tail),
        ("jobs_per_s", jobs_per_s),
        ("setup_s", median(&setup_secs)),
        ("peak_rss_mb", peak_rss_mb),
    ]);
    E2eRun {
        attempted: checker.attempted,
        failed: checker.failed,
        errors: std::mem::take(&mut checker.errors),
        samples: all.len(),
        passes: pass_secs.len(),
        planned,
        timed_s,
        harness_share: 1.0 - all.iter().sum::<f64>() / 1e3 / timed_s,
        raw_p50_ms: percentile(&all, 50.0),
        raw_p99_ms: percentile(&all, 99.0),
        raw_jobs_per_s: all.len() as f64 / timed_s,
        decision_digest,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_ranks_the_job_mix_at_each_jobs_lower_quartile() {
        // Four passes of a four-job mix; the quartile of four samples
        // is the smallest, of eight the second smallest.
        let by_position = vec![
            vec![10.0, 12.0, 11.0, 13.0],
            vec![40.0, 36.0, 38.0, 50.0],
            vec![21.0, 25.0, 20.0, 20.5],
            vec![30.0, 31.0, 90.0, 33.0],
        ];
        assert_eq!(latency(&by_position), [25.0, 36.0]);
        assert_eq!(
            lower_quartile(&[8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0]),
            2.0
        );
        // A job slower in every run moves; slower in half of them, not.
        let half = vec![vec![10.0, 50.0, 10.0, 50.0], vec![40.0; 4]];
        assert_eq!(latency(&half), [25.0, 40.0]);
        let every = vec![vec![50.0; 4], vec![40.0; 4]];
        assert_eq!(latency(&every), [45.0, 50.0]);
        assert!(latency(&[vec![10.0], vec![]])[1].is_nan());
        assert!(latency(&[])[0].is_nan());
    }

    #[test]
    fn passes_scale_with_seconds_and_never_reach_zero() {
        let inputs = setup("corpus12", 1);
        let w = spec().workload("corpus12").unwrap();
        let run = |seconds, smoke| RunArgs {
            workload: w,
            seed: 1,
            seconds,
            smoke,
        };
        let full = planned_passes(&inputs, &run(spec().run_seconds, false));
        assert_eq!(full, inputs.passes);
        assert_eq!(
            planned_passes(&inputs, &run(spec().run_seconds / 2.0, false)),
            full / 2
        );
        assert_eq!(planned_passes(&inputs, &run(0.001, false)), 1);
        assert_eq!(planned_passes(&inputs, &run(20.0, true)), 1);
    }
}
