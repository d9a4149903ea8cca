//! Throughput and quality harness for the multi-start calibration
//! engine.
//!
//! Calibrates DL-generated fixtures three ways — single-start, serial
//! multi-start, and pool-parallel multi-start — then gates:
//!
//! * **Byte identity:** serial and parallel multi-start results carry
//!   identical bit patterns (params, objective, evaluations, winning
//!   start) on every fixture.
//! * **Never worse:** the multi-start objective is `<=` the
//!   single-start objective on every fixture (start 0 *is* the
//!   single-start seed).
//!
//! and writes the timings to `BENCH_calibration.json` (override with
//! `DLM_BENCH_OUT`), with each method's mean objective, mean θ-solves
//! per fit and mean θ-solves of each fit's costliest start, so the
//! quality of a change to the search shows next to its speed.
//! `speedup_parallel_multi` — serial multi-start ÷ parallel multi-start
//! wall-clock — is the headline number. The starts are independent, but
//! Levenberg–Marquardt starts differ in cost (the seed start of these
//! fixtures converges in about a dozen solves, a stratified one may take
//! a few times that), and a fit ends with its costliest start. So the
//! speedup is capped by `speedup_ceiling`, the serial multi-start's
//! θ-solves ÷ those of its costliest starts, and by the worker count.
//!
//! This is a plain `harness = false` bench so CI can drive it directly:
//!
//! ```text
//! cargo bench -p dlm-bench --bench calibration            # full grid
//! cargo bench -p dlm-bench --bench calibration -- --smoke # reduced, for CI
//! ```
//!
//! The process exits nonzero if either gate fails, which is what the CI
//! `cal-smoke` job gates on.

use dlm_bench::artifact;
use dlm_cascade::DensityMatrix;
use dlm_core::calibrate::{calibrate, Calibration, CalibrationOptions, MultiStartConfig};
use dlm_core::evaluate::Parallelism;
use dlm_core::fixtures::{calibration_bits, dl_ground_truth_matrix};
use dlm_core::growth::ExpDecayGrowth;
use dlm_core::params::DlParameters;
use std::time::Instant;

fn fixtures(count: usize) -> Vec<DensityMatrix> {
    let truths = [
        (0.010, ExpDecayGrowth::new(1.2, 1.3, 0.30), 25.0),
        (0.030, ExpDecayGrowth::new(1.0, 0.8, 0.20), 25.0),
        (0.005, ExpDecayGrowth::new(1.6, 1.8, 0.40), 30.0),
        (0.020, ExpDecayGrowth::new(0.8, 0.6, 0.15), 20.0),
    ];
    truths
        .iter()
        .cycle()
        .take(count)
        .map(|(d, growth, k)| dl_ground_truth_matrix(*d, growth, *k))
        .collect()
}

struct Timed {
    calibrations: Vec<Calibration>,
    millis: f64,
}

fn timed_run(observed: &[DensityMatrix], max_evals: usize, multi_start: MultiStartConfig) -> Timed {
    let start = Instant::now();
    let calibrations = observed
        .iter()
        .map(|matrix| {
            calibrate(
                matrix,
                1,
                &[2, 3, 4, 5, 6],
                DlParameters::paper_hops(6).expect("seed params"),
                ExpDecayGrowth::paper_hops(),
                &CalibrationOptions {
                    fit_capacity: true,
                    max_evals,
                    multi_start,
                    ..CalibrationOptions::default()
                },
            )
            .expect("calibration run")
        })
        .collect();
    Timed {
        calibrations,
        millis: start.elapsed().as_secs_f64() * 1e3,
    }
}

fn mean_objective(t: &Timed) -> f64 {
    t.calibrations.iter().map(|c| c.objective).sum::<f64>() / t.calibrations.len() as f64
}

/// Mean θ-solves per calibration (across its starts).
fn mean_evaluations(t: &Timed) -> f64 {
    t.calibrations.iter().map(|c| c.evaluations).sum::<usize>() as f64 / t.calibrations.len() as f64
}

/// Mean θ-solves of each calibration's costliest start.
fn mean_largest_start(t: &Timed) -> f64 {
    t.calibrations
        .iter()
        .map(|c| c.largest_start_evaluations)
        .sum::<usize>() as f64
        / t.calibrations.len() as f64
}

fn json_run(t: &Timed) -> String {
    format!(
        "{{\"ms\": {:.3}, \"mean_objective\": {:e}, \"evaluations\": {}, \
         \"mean_evaluations\": {:.1}, \"largest_start_evaluations\": {:.1}}}",
        t.millis,
        mean_objective(t),
        t.calibrations.iter().map(|c| c.evaluations).sum::<usize>(),
        mean_evaluations(t),
        mean_largest_start(t),
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (fixture_count, starts, max_evals) = if smoke { (2, 8, 150) } else { (4, 8, 400) };

    eprintln!("generating {fixture_count} DL ground-truth fixtures...");
    let observed = fixtures(fixture_count);
    let threads = artifact::hardware_threads();
    let workers = Parallelism::Auto.workers(starts);
    eprintln!(
        "{fixture_count} fixtures x {starts} starts x {max_evals} evals/start, \
         {workers} worker(s)"
    );

    let multi = |parallelism: Parallelism| MultiStartConfig {
        starts,
        seed: 42,
        parallelism,
    };
    let single = timed_run(&observed, max_evals, MultiStartConfig::single());
    let serial_multi = timed_run(&observed, max_evals, multi(Parallelism::Serial));
    let parallel_multi = timed_run(&observed, max_evals, multi(Parallelism::Auto));

    // Gate 1: serial and parallel multi-start are bit-identical.
    let mut identical = true;
    for (i, (s, p)) in serial_multi
        .calibrations
        .iter()
        .zip(&parallel_multi.calibrations)
        .enumerate()
    {
        if calibration_bits(s) != calibration_bits(p) {
            eprintln!("DIVERGENCE: fixture {i} parallel multi-start differs from serial");
            identical = false;
        }
    }
    // Gate 2: multi-start never produces a worse objective.
    let mut never_worse = true;
    for (i, (s, m)) in single
        .calibrations
        .iter()
        .zip(&serial_multi.calibrations)
        .enumerate()
    {
        // `total_cmp` also rejects a NaN multi-start objective, which
        // a plain `<=` would silently accept.
        if m.objective.total_cmp(&s.objective) == std::cmp::Ordering::Greater
            || m.objective.is_nan()
        {
            eprintln!(
                "REGRESSION: fixture {i} multi-start objective {} worse than single-start {}",
                m.objective, s.objective
            );
            never_worse = false;
        }
    }

    let speedup = serial_multi.millis / parallel_multi.millis.max(1e-9);
    // Fixtures run one after another, so the parallel run cannot beat
    // the sum of their costliest starts.
    let ceiling = mean_evaluations(&serial_multi) / mean_largest_start(&serial_multi).max(1.0);
    // Geometric-mean objective improvement of multi-start over
    // single-start (1.0 = no improvement; the fixtures where the
    // paper-preset seed already sits in the global basin contribute 1).
    let improvement = {
        let logs: f64 = single
            .calibrations
            .iter()
            .zip(&serial_multi.calibrations)
            .map(|(s, m)| (s.objective.max(1e-300) / m.objective.max(1e-300)).ln())
            .sum();
        (logs / fixture_count as f64).exp()
    };
    let json = format!(
        "{{\n  \"schema\": \"{schema}\",\n  \"mode\": \"{mode}\",\n  \
         \"hardware_threads\": {threads},\n  \"workers\": {workers},\n  \
         \"fixtures\": {fixture_count},\n  \"starts\": {starts},\n  \
         \"evals_per_start\": {max_evals},\n  \
         \"single_start\": {single},\n  \"multi_serial\": {serial},\n  \
         \"multi_parallel\": {parallel},\n  \
         \"speedup_parallel_multi\": {speedup:.3},\n  \
         \"speedup_ceiling\": {ceiling:.3},\n  \
         \"objective_improvement_geomean\": {improvement:.3},\n  \
         \"objective_never_worse\": {never_worse},\n  \
         \"outputs_identical\": {identical}\n}}\n",
        schema = artifact::CALIBRATION_SCHEMA,
        mode = if smoke { "smoke" } else { "full" },
        single = json_run(&single),
        serial = json_run(&serial_multi),
        parallel = json_run(&parallel_multi),
    );
    let out = artifact::bench_out("BENCH_calibration.json");
    artifact::write(&out, &json).expect("valid calibration artifact");

    for (label, run) in [
        ("single-start", &single),
        ("multi serial", &serial_multi),
        ("multi parallel", &parallel_multi),
    ] {
        eprintln!(
            "{label:<15} {:>9.1} ms   mean objective {:.3e}   {:.1} solves per fit, \
             {:.1} in its costliest start",
            run.millis,
            mean_objective(run),
            mean_evaluations(run),
            mean_largest_start(run),
        );
    }
    eprintln!(
        "speedup: parallel multi-start {speedup:.2}x (ceiling {ceiling:.2}x on \
         {workers} worker(s)), objective improvement {improvement:.2}x -> {out}"
    );
    let reachable = ceiling.min(workers as f64);
    if reachable >= 2.0 && speedup < 0.5 * reachable {
        eprintln!(
            "WARNING: parallel multi-start speedup {speedup:.2}x is below half of the \
             {reachable:.2}x its costliest starts and {workers} worker(s) allow"
        );
    }
    if !identical || !never_worse {
        std::process::exit(1);
    }
}
