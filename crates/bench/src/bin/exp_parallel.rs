//! **Parallel validation + simulation memo-cache** — what the concurrent
//! validate stage and the shared [`SimCache`] buy the repair loop,
//! measured over the 12-incident corpus.
//!
//! Part 1 sweeps `threads ∈ {1,2,4,8} × cache {off,on}` and prints wall
//! time, speedup against the legacy `threads=1, cache off` path, and the
//! cache hit-rate. Every cell repairs the same corpus with the same
//! seeds; outcomes are identical by construction (the differential
//! determinism test proves it), so the table is a pure cost comparison.
//! Cache-on rows run the corpus **twice against one cache** and report a
//! cold/warm pair: the cold walk pays cache population (historically
//! reported alone as a misleading sub-1x "speedup" at `threads=1`), the
//! warm walk is the steady state the cache exists for.
//! Part 2 breaks the hit-rate down per incident. Part 3 re-walks the
//! corpus against the already-warm cache — the A/B-experiment shape
//! where memoization approaches a 100% hit-rate.
//!
//! Thread scaling is honest: requested counts above the host's available
//! parallelism are clamped by the engine (oversubscription is pure
//! scheduling overhead for this CPU-bound stage), so sweep rows that
//! would duplicate an already-measured effective count are skipped and
//! annotated instead of being reported as a bogus scaling regression.
//! On a single-core host every row therefore runs sequentially and the
//! measured speedup column comes from memoization alone — which is why
//! every row (skipped ones included) also carries a host-independent
//! **work proxy**: from the baseline run's per-iteration batch sizes
//! `b_i`, a `t`-thread validate stage needs `Σ ceil(b_i/t)` sequential
//! simulation steps where one thread needs `Σ b_i`, so
//! `proxy = Σ b_i / Σ ceil(b_i/t)` is the scaling the batch structure
//! admits at the *requested* count, unclamped. Run on a multi-core host
//! to see the measured column approach it.
//!
//! ```sh
//! cargo run --release -p acr-bench --bin exp_parallel
//! ```

use acr_bench::{corpus, json, rule, standard_network, write_bench_mode};
use acr_core::{OperatorSet, RepairConfig, RepairEngine, RepairReport, SimCache};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Cell {
    wall: Duration,
    validations: usize,
    cached: usize,
    fixed: usize,
    reports: Vec<RepairReport>,
}

fn hit_rate(cached: usize, simulated: usize) -> f64 {
    100.0 * cached as f64 / (cached + simulated).max(1) as f64
}

fn main() {
    // The corpus is CI-sized already; `--smoke` only routes the artifact
    // to the non-canonical side file (see `write_bench_mode`).
    let smoke = std::env::args().any(|a| a == "--smoke");
    let net = standard_network();
    let incidents = corpus(&net, 12, 77);
    println!(
        "substrate: {}-router WAN, {} config lines; corpus: {} incidents; host parallelism: {}\n",
        net.topo.len(),
        net.cfg.total_lines(),
        incidents.len(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let run_corpus = |threads: usize, cache: Option<&Arc<SimCache>>| -> Cell {
        let mut cell = Cell {
            wall: Duration::ZERO,
            validations: 0,
            cached: 0,
            fixed: 0,
            reports: Vec::new(),
        };
        for (i, incident) in incidents.iter().enumerate() {
            let engine = RepairEngine::new(
                &net.topo,
                &net.spec,
                RepairConfig {
                    seed: i as u64,
                    threads,
                    cache: cache.cloned(),
                    operators: OperatorSet::Both,
                    ..RepairConfig::default()
                },
            );
            let t = Instant::now();
            let report = engine.repair(&incident.broken);
            cell.wall += t.elapsed();
            cell.validations += report.validations;
            cell.cached += report.validations_cached;
            cell.fixed += usize::from(report.outcome.is_fixed());
            cell.reports.push(report);
        }
        cell
    };

    // ---- Part 1: threads × cache sweep --------------------------------
    let header = format!(
        "{:<10} {:<6} {:>9} {:>9} {:>9} {:>9} {:>7} {:>10} {:>9} {:>8} {:>6}",
        "Threads",
        "Cache",
        "Cold",
        "ColdSpd",
        "Warm",
        "WarmSpd",
        "Proxy",
        "Simulated",
        "Cached",
        "Hit-rate",
        "Fixed"
    );
    println!("{header}");
    rule(header.len());
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut baseline_wall = Duration::ZERO;
    // Per-iteration validation batch sizes of the baseline run — the
    // work-count scaling proxy is computed from these, so it reflects
    // the batch structure rather than the host's core count.
    let mut batches: Vec<usize> = Vec::new();
    let proxy_speedup = |batches: &[usize], t: usize| -> f64 {
        let units: usize = batches.iter().sum();
        let steps: usize = batches.iter().map(|b| b.div_ceil(t)).sum();
        units as f64 / steps.max(1) as f64
    };
    let mut sweep_rows: Vec<String> = Vec::new();
    let mut measured: Vec<(usize, bool)> = Vec::new();
    for &threads in &[1usize, 2, 4, 8] {
        for cache_on in [false, true] {
            // The engine clamps `threads` to available parallelism, so an
            // oversubscribed row would re-measure an effective count the
            // sweep already covered — skip it and say so, instead of
            // printing what reads as a scaling regression.
            let effective = threads.min(avail);
            if threads > avail && measured.contains(&(effective, cache_on)) {
                println!(
                    "{:<10} {:<6} {:>9} {:>9} {:>6.2}x skipped: oversubscribed (clamped to {effective}, row above)",
                    threads,
                    if cache_on { "on" } else { "off" },
                    "-",
                    "-",
                    proxy_speedup(&batches, threads),
                );
                sweep_rows.push(
                    json::Obj::new()
                        .int("threads", threads)
                        .int("effective_threads", effective)
                        .bool("cache", cache_on)
                        .bool("skipped_oversubscribed", true)
                        .int("work_units", batches.iter().sum::<usize>())
                        .num("proxy_speedup", proxy_speedup(&batches, threads))
                        .build(),
                );
                continue;
            }
            measured.push((effective, cache_on));
            let cache = cache_on.then(|| Arc::new(SimCache::default()));
            let cell = run_corpus(threads, cache.as_ref());
            // Second walk against the now-populated cache: steady-state
            // cost without the population overhead the cold walk paid.
            let warm = cache_on.then(|| run_corpus(threads, cache.as_ref()));
            if threads == 1 && !cache_on {
                baseline_wall = cell.wall;
                batches = cell
                    .reports
                    .iter()
                    .flat_map(|r| r.iterations.iter().map(|s| s.validated))
                    .collect();
            }
            let speedup = |w: Duration| baseline_wall.as_secs_f64() / w.as_secs_f64().max(1e-9);
            println!(
                "{:<10} {:<6} {:>8.2}s {:>8.2}x {:>9} {:>9} {:>6.2}x {:>10} {:>9} {:>7.1}% {:>6}",
                threads,
                if cache_on { "on" } else { "off" },
                cell.wall.as_secs_f64(),
                speedup(cell.wall),
                warm.as_ref()
                    .map_or("-".into(), |w| format!("{:.2}s", w.wall.as_secs_f64())),
                warm.as_ref()
                    .map_or("-".into(), |w| format!("{:.2}x", speedup(w.wall))),
                proxy_speedup(&batches, threads),
                cell.validations,
                cell.cached,
                hit_rate(cell.cached, cell.validations),
                format!("{}/{}", cell.fixed, incidents.len()),
            );
            let mut row = json::Obj::new()
                .int("threads", threads)
                .int("effective_threads", effective)
                .bool("oversubscribed", threads > avail)
                .bool("cache", cache_on)
                .num("wall_cold_s", cell.wall.as_secs_f64())
                .num("speedup_cold", speedup(cell.wall))
                .int("work_units", batches.iter().sum::<usize>())
                .num("proxy_speedup", proxy_speedup(&batches, threads))
                .int("simulated", cell.validations)
                .int("cached", cell.cached)
                .int("fixed", cell.fixed);
            if let Some(w) = &warm {
                row = row
                    .num("wall_warm_s", w.wall.as_secs_f64())
                    .num("speedup_warm", speedup(w.wall))
                    .int("warm_simulated", w.validations)
                    .int("warm_cached", w.cached);
            }
            sweep_rows.push(row.build());
        }
    }
    rule(header.len());
    println!(
        "speedup is measured wall against the legacy threads=1, cache-off path; \
         cache-on rows list cold (population) and warm (steady-state) walks separately; \
         proxy = Σb_i / Σ⌈b_i/t⌉ over the baseline run's validation batches (host-independent)\n"
    );
    // ---- Part 1b: sharded convergence on the scale-frontier WAN -------
    // Worker sweep over the per-prefix sharded runner on wan(200,400) —
    // 600 routers, 600 prefixes. Outcome/arena byte-identity across
    // worker counts is asserted by `exp_converge` and `prop_shard_sim`;
    // this table is the cost curve (on a single-core host the >1 rows
    // measure honest thread overhead, not parallel speedup).
    let big = acr_bench::scaled_network(200);
    let sim = acr_sim::Simulator::new(&big.topo, &big.cfg);
    let universe = sim.universe();
    let mut shard_rows = Vec::new();
    println!(
        "sharded convergence, wan(200,400) ({} prefixes):",
        universe.len()
    );
    let mut shard_base = Duration::ZERO;
    for workers in [1usize, 2, 4] {
        let opts = acr_sim::RunOptions {
            engine: acr_sim::ConvergeEngine::Sparse,
            warm: None,
            shard: acr_sim::ShardMode::Workers(workers),
        };
        let mut arena = acr_sim::DerivArena::new();
        let t = Instant::now();
        let (_outcomes, work) = sim.run_prefixes_opts(&universe, &mut arena, &opts);
        let wall = t.elapsed();
        if workers == 1 {
            shard_base = wall;
        }
        println!(
            "  workers={workers}: {:>8.2}s ({:.2}x vs workers=1), {} policy evals",
            wall.as_secs_f64(),
            shard_base.as_secs_f64() / wall.as_secs_f64().max(1e-9),
            work.policy_evals,
        );
        shard_rows.push(
            json::Obj::new()
                .int("workers", workers)
                .int("prefixes", universe.len())
                .num("wall_s", wall.as_secs_f64())
                .int("policy_evals", work.policy_evals as usize)
                .int("sharded_runs", work.sharded_runs as usize)
                .int("sharded_prefixes", work.sharded_prefixes as usize)
                .build(),
        );
    }
    println!();

    let path = write_bench_mode("parallel", smoke, |env| {
        env.int("incidents", incidents.len())
            .raw("sweep", &json::array(sweep_rows))
            .raw("shard_sweep", &json::array(shard_rows))
    });
    println!("wrote {path}\n");

    // ---- Part 2: per-incident hit-rate, cold and warm -----------------
    // One shared cache, two corpus walks. The cold walk hits on
    // crossover duplicates and cross-incident config overlap; the warm
    // walk is the A/B-experiment shape where every validation is served
    // from memo.
    let shared = Arc::new(SimCache::default());
    let cold = run_corpus(4, Some(&shared));
    let warm = run_corpus(4, Some(&shared));
    let header = format!(
        "{:<42} {:>15} {:>9} {:>15} {:>9}",
        "Incident (threads=4, shared cache)",
        "Cold sim/hit",
        "Hit-rate",
        "Warm sim/hit",
        "Hit-rate"
    );
    println!("{header}");
    rule(header.len());
    let mut cold_hit_incidents = 0usize;
    let mut warm_hit_incidents = 0usize;
    for (i, incident) in incidents.iter().enumerate() {
        let (c, w) = (&cold.reports[i], &warm.reports[i]);
        cold_hit_incidents += usize::from(c.validations_cached > 0);
        warm_hit_incidents += usize::from(w.validations_cached > 0);
        println!(
            "{:<42} {:>15} {:>8.1}% {:>15} {:>8.1}%",
            incident.fault.to_string(),
            format!("{}/{}", c.validations, c.validations_cached),
            hit_rate(c.validations_cached, c.validations),
            format!("{}/{}", w.validations, w.validations_cached),
            hit_rate(w.validations_cached, w.validations),
        );
    }
    rule(header.len());
    println!(
        "incidents with a nonzero hit-rate: {cold_hit_incidents}/{} cold, {warm_hit_incidents}/{} warm\n",
        incidents.len(),
        incidents.len()
    );

    // ---- Part 3: warm-cache re-walk -----------------------------------
    println!(
        "warm re-walk (threads=4, one shared cache, {} entries after the cold pass):",
        shared.len()
    );
    println!(
        "  cold: {:>8.2}s  {:>6} simulated  {:>6} cached ({:.1}%)",
        cold.wall.as_secs_f64(),
        cold.validations,
        cold.cached,
        hit_rate(cold.cached, cold.validations),
    );
    println!(
        "  warm: {:>8.2}s  {:>6} simulated  {:>6} cached ({:.1}%)  — {:.2}x over cold",
        warm.wall.as_secs_f64(),
        warm.validations,
        warm.cached,
        hit_rate(warm.cached, warm.validations),
        cold.wall.as_secs_f64() / warm.wall.as_secs_f64().max(1e-9),
    );
}
