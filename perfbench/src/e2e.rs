//! The untraced run: set-up (several times), the nominal-rate phase,
//! the closed-loop probe, the output check, and the rate ladder,
//! through the real deployment. Every end-to-end metric comes from here.

use crate::check::{check_forecasts, CheckOutcome};
use crate::deploy::Deployment;
use crate::load::{run_phase, Conn, PhaseRun};
use crate::plan::{Class, Phase, Plan, Workload};
use crate::stats::{block_quantile, median, quantile};
use std::path::Path;
use std::time::Instant;

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether the result line carries it and `BENCHMARK.json` bounds
    /// it. The others are printed, but spread too far between runs on a
    /// shared two-vCPU host for any bound a gate may use (measured
    /// spreads in `perfbench/BASELINE.md`).
    pub gated: bool,
}

const fn metric(name: &'static str, unit: &'static str, gated: bool) -> EndToEnd {
    EndToEnd { name, unit, gated }
}

/// Every end-to-end metric, in `BENCHMARK.json` order.
pub const END_TO_END: [EndToEnd; 11] = [
    metric("setup_s", "s", true),
    metric("forecast_p50_ms", "ms", false),
    metric("forecast_p99_ms", "ms", false),
    metric("ingest_p50_ms", "ms", true),
    metric("ingest_p99_ms", "ms", false),
    metric("close_p50_ms", "ms", true),
    metric("close_p90_ms", "ms", false),
    metric("sustained_rps", "req/s", false),
    metric("eq8_accuracy", "fraction", true),
    metric("cpu_ms_per_req", "ms", true),
    metric("peak_rss_mb", "MB", true),
];

/// Full set-ups per run; `setup_s` is their median and the last one
/// carries the measured phases.
pub const SETUPS: usize = 3;

/// Latency percentiles are the median, over consecutive blocks of a
/// phase's requests, of each block's percentile: at least this many
/// requests a block, at most [`MAX_BLOCKS`] blocks (set-up closes use one
/// block per set-up). The host's stalls come in bursts of a second or
/// less; a block median shrugs off a few spoiled blocks.
const MIN_BLOCK_REQUESTS: usize = 100;
const MAX_BLOCKS: usize = 13;

/// Seconds a closed-loop phase may take in all.
pub const CLOSED_LOOP_SECONDS: f64 = 120.0;

/// Generator lag (p99) at the nominal rate past which the client, not
/// the system, set the numbers: a floor, or this share of the primary
/// class's p99 latency, whichever is larger.
const MAX_LAG_FLOOR_MS: f64 = 2.0;
const MAX_LAG_SHARE: f64 = 0.5;

/// Seconds an open-loop phase may run past its schedule to drain.
fn drain_seconds(workload: Workload) -> f64 {
    (2.0 * workload.shape().limit_ms / 1000.0).max(1.0)
}

/// One phase's client-side tallies.
#[derive(Debug, Clone)]
pub struct PhaseTally {
    /// Phase name.
    pub name: String,
    /// Requests scheduled.
    pub sent: usize,
    /// Requests answered as expected.
    pub ok: usize,
    /// Requests answered wrongly or not at all.
    pub failed: usize,
    /// p99 generator lag (ms).
    pub lag_p99_ms: f64,
}

impl PhaseTally {
    /// Tallies `run` of `phase`.
    #[must_use]
    pub fn of(phase: &Phase, run: &PhaseRun) -> Self {
        let lags: Vec<f64> = run.outcomes.iter().map(|o| o.lag).collect();
        Self {
            name: phase.name.clone(),
            sent: phase.len(),
            ok: run.outcomes.iter().filter(|o| o.ok).count(),
            failed: run.failed(),
            lag_p99_ms: 1000.0 * quantile(&lags, 0.99).unwrap_or(0.0),
        }
    }
}

/// How one open-loop phase went against the workload's latency limit.
#[derive(Debug, Clone)]
pub struct RungVerdict {
    /// Offered rate (requests per second).
    pub offered_rps: f64,
    /// Answered requests per second over the phase.
    pub achieved_rps: f64,
    /// The judged tail of the primary class (ms).
    pub tail_ms: f64,
    /// Tail under the limit, nothing unanswered or wrong, no backlog.
    pub pass: bool,
}

fn judge(plan: &Plan, phase: &Phase, run: &PhaseRun) -> RungVerdict {
    let shape = plan.workload.shape();
    let tail_ms =
        1000.0 * quantile(&run.latencies(shape.primary), shape.tail).unwrap_or(f64::INFINITY);
    let answered = run.outcomes.iter().filter(|o| o.ok).count();
    let last = run
        .outcomes
        .iter()
        .map(|o| o.done_at)
        .filter(|t| t.is_finite())
        .fold(phase.seconds, f64::max);
    let backlog = run.peak_in_flight >= crate::load::MAX_IN_FLIGHT
        || last > phase.seconds + shape.limit_ms / 1000.0;
    RungVerdict {
        offered_rps: phase.len() as f64 / phase.seconds,
        achieved_rps: answered as f64 / last,
        tail_ms,
        pass: answered == phase.len() && tail_ms <= shape.limit_ms && !backlog,
    }
}

/// A deployment brought to the workload's warm state.
pub struct Warm {
    /// The three server processes.
    pub deployment: Deployment,
    /// The client's two connections to the router.
    pub conns: [Conn; 2],
    /// The set-up phase as the client saw it.
    pub setup: PhaseRun,
    /// Spawn → all tiers `READY` → warm state ready, in seconds.
    pub seconds: f64,
}

/// Spawns the deployment, connects, and runs the set-up preload.
///
/// # Errors
///
/// A deployment that fails to start or a connection that cannot be
/// made.
pub fn warm_up(plan: &Plan, bin_dir: &Path) -> Result<Warm, String> {
    let started = Instant::now();
    let deployment = Deployment::start(bin_dir).map_err(|e| format!("deployment: {e}"))?;
    let mut conns = connect(&deployment, plan.workload)?;
    let setup = run_phase(&mut conns, &plan.setup, CLOSED_LOOP_SECONDS);
    Ok(Warm {
        deployment,
        conns,
        setup,
        seconds: started.elapsed().as_secs_f64(),
    })
}

/// Two fresh client connections to the router.
///
/// # Errors
///
/// A connection or binary negotiation that fails.
pub fn connect(deployment: &Deployment, workload: Workload) -> Result<[Conn; 2], String> {
    let binary = workload.binary();
    let one = || Conn::connect(deployment.router, binary).map_err(|e| format!("connect: {e}"));
    Ok([one()?, one()?])
}

/// Runs the nominal phase, measuring the servers' CPU time across it.
///
/// # Errors
///
/// An unreadable `/proc` entry.
pub fn nominal(plan: &Plan, warm: &mut Warm) -> Result<(PhaseRun, f64), String> {
    let cpu_before = warm
        .deployment
        .cpu_seconds()
        .map_err(|e| format!("cpu: {e}"))?;
    let run = run_phase(&mut warm.conns, &plan.nominal, drain_seconds(plan.workload));
    let cpu = warm
        .deployment
        .cpu_seconds()
        .map_err(|e| format!("cpu: {e}"))?
        - cpu_before;
    if run.outcomes.iter().any(|o| !o.latency.is_finite()) {
        // Unanswered requests would answer the next phase's reads.
        warm.conns = connect(&warm.deployment, plan.workload)?;
    }
    Ok((run, cpu))
}

/// Whether the client kept its schedule at the nominal rate: a late
/// generator or a connection that hit the in-flight cap means the
/// client, not the system, set the numbers.
///
/// # Errors
///
/// The reason the run is invalid.
pub fn validity(plan: &Plan, tally: &PhaseTally, run: &PhaseRun) -> Result<(), String> {
    let primary_p99_ms =
        1000.0 * quantile(&run.latencies(plan.workload.shape().primary), 0.99).unwrap_or(0.0);
    let limit_ms = MAX_LAG_FLOOR_MS.max(MAX_LAG_SHARE * primary_p99_ms);
    if tally.lag_p99_ms > limit_ms {
        return Err(format!(
            "generator lag p99 {:.2} ms at the nominal rate exceeds {limit_ms:.2} ms",
            tally.lag_p99_ms
        ));
    }
    if run.peak_in_flight >= crate::load::MAX_IN_FLIGHT {
        return Err("a connection reached the in-flight cap at the nominal rate".into());
    }
    Ok(())
}

/// Everything the untraced run measured.
pub struct E2eRun {
    /// Set-up wall times (seconds).
    pub setups: Vec<f64>,
    /// Latencies (seconds) of hour-closing ingests made during set-up.
    pub setup_closes: Vec<f64>,
    /// Per-phase tallies, in run order.
    pub tallies: Vec<PhaseTally>,
    /// The nominal phase.
    pub nominal: PhaseRun,
    /// The closed-loop probe.
    pub probe: PhaseRun,
    /// Router + backend CPU seconds spent during the nominal phase.
    pub nominal_cpu_s: f64,
    /// Nominal first, then each ladder rung run.
    pub verdicts: Vec<RungVerdict>,
    /// Output check over the kept forecasts.
    pub check: CheckOutcome,
    /// Summed peak RSS of the three servers (MB).
    pub peak_rss_mb: f64,
    /// Requests attempted.
    pub attempted: usize,
    /// Of those, failed, refused, or wrong (including forecast
    /// mismatches).
    pub failed: usize,
    /// `Err` with the reason when the generator, not the system, set the
    /// numbers.
    pub valid: Result<(), String>,
}

/// Runs the workload's untraced measurement.
///
/// # Errors
///
/// A deployment that fails to start or a connection that cannot be
/// made; wrong answers are counted, not errors.
pub fn run(plan: &Plan, bin_dir: &Path) -> Result<E2eRun, String> {
    let mut setups = Vec::new();
    let mut setup_closes = Vec::new();
    let mut tallies = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut count = |tallies: &mut Vec<PhaseTally>, tally: PhaseTally| {
        attempted += tally.sent;
        failed += tally.failed;
        tallies.push(tally);
    };
    let mut live = None;
    for i in 0..SETUPS {
        let warm = warm_up(plan, bin_dir)?;
        setups.push(warm.seconds);
        setup_closes.extend(warm.setup.latencies(Class::Close));
        let mut tally = PhaseTally::of(&plan.setup, &warm.setup);
        tally.name = format!("setup{}", i + 1);
        count(&mut tallies, tally);
        // Earlier deployments are dropped (killed and reaped) here.
        live = Some(warm);
    }
    let mut warm = live.expect("at least one set-up");

    let (nominal, nominal_cpu_s) = self::nominal(plan, &mut warm)?;
    let tally = PhaseTally::of(&plan.nominal, &nominal);
    let valid = validity(plan, &tally, &nominal);
    count(&mut tallies, tally);
    let mut verdicts = vec![judge(plan, &plan.nominal, &nominal)];
    // Read before the ladder, whose reach varies from run to run.
    let peak_rss_mb = warm
        .deployment
        .peak_rss_mb()
        .map_err(|e| format!("rss: {e}"))?;

    let probe = run_phase(&mut warm.conns, &plan.probe, CLOSED_LOOP_SECONDS);
    count(&mut tallies, PhaseTally::of(&plan.probe, &probe));
    let check_run = run_phase(&mut warm.conns, &plan.check, CLOSED_LOOP_SECONDS);
    count(&mut tallies, PhaseTally::of(&plan.check, &check_run));

    let drain = drain_seconds(plan.workload);
    'climb: for (rung, retry) in &plan.ladder {
        for phase in [rung, retry] {
            let run = run_phase(&mut warm.conns, phase, drain);
            let verdict = judge(plan, phase, &run);
            // A rung past the knee may leave requests unanswered; that
            // is its verdict, not an error. Wrong answers are errors
            // anywhere.
            let wrong = run
                .outcomes
                .iter()
                .filter(|o| o.latency.is_finite() && !o.ok)
                .count();
            attempted += phase.len();
            failed += wrong;
            tallies.push(PhaseTally::of(phase, &run));
            if run.outcomes.iter().any(|o| !o.latency.is_finite()) {
                warm.conns = connect(&warm.deployment, plan.workload)?;
            }
            let pass = verdict.pass;
            verdicts.push(verdict);
            if pass {
                continue 'climb;
            }
        }
        break;
    }
    drop(warm);

    let mut kept = nominal.kept.clone();
    kept.extend(check_run.kept);
    let check = check_forecasts(plan, &kept);
    failed += check.mismatched;
    Ok(E2eRun {
        setups,
        setup_closes,
        tallies,
        nominal,
        probe,
        nominal_cpu_s,
        verdicts,
        check,
        peak_rss_mb,
        attempted,
        failed,
        valid,
    })
}

/// Which phase a class's latency metrics come from on a workload: the
/// nominal phase where the mix sends the class often enough for a
/// stable tail, else the closed-loop probe, else the set-up preload.
/// In-hour ingests always come from the probe: under open-loop load
/// their sub-millisecond latency follows the shared host's scheduling
/// stalls more than the code (see `perfbench/BASELINE.md`).
#[must_use]
pub fn latency_source(workload: Workload, class: Class) -> Source {
    match (workload, class) {
        (Workload::ForecastHot | Workload::RefitStorm, Class::Forecast)
        | (Workload::RefitStorm, Class::Close) => Source::Nominal,
        (_, Class::Close) => Source::Setup,
        _ => Source::Probe,
    }
}

/// The phase a class's latency metrics come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The open-loop nominal phase.
    Nominal,
    /// The closed-loop probe.
    Probe,
    /// The set-up preloads (their closes).
    Setup,
}

impl Source {
    /// The phase's name in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Nominal => "nominal",
            Self::Probe => "probe",
            Self::Setup => "setup",
        }
    }
}

impl E2eRun {
    /// `sustained_rps`: the achieved rate of the highest passing rung
    /// (nominal counts as the lowest; a rung passes when it or its twin
    /// does). When even nominal fails, its achieved rate scaled down by
    /// how far its tail overshot.
    #[must_use]
    pub fn sustained_rps(&self, limit_ms: f64) -> f64 {
        match self.verdicts.iter().rev().find(|v| v.pass) {
            Some(v) => v.achieved_rps,
            None => {
                let v = &self.verdicts[0];
                v.achieved_rps * (limit_ms / v.tail_ms).min(1.0)
            }
        }
    }

    fn latencies(&self, workload: Workload, class: Class) -> Vec<f64> {
        match latency_source(workload, class) {
            Source::Nominal => self.nominal.latencies(class),
            Source::Setup => self.setup_closes.clone(),
            Source::Probe => self.probe.latencies(class),
        }
    }

    /// Every end-to-end metric's value, in [`END_TO_END`] order. A
    /// latency percentile is a block median ([`block_quantile`]).
    /// `error_rate` is not among them: it is 0 on a correct run, so the
    /// result line carries it as `failed` / `attempted`.
    #[must_use]
    pub fn metrics(&self, workload: Workload) -> Vec<f64> {
        let ms = |class: Class, q: f64| {
            let latencies = self.latencies(workload, class);
            let blocks = if latency_source(workload, class) == Source::Setup {
                SETUPS
            } else {
                (latencies.len() / MIN_BLOCK_REQUESTS).clamp(1, MAX_BLOCKS)
            };
            1000.0 * block_quantile(&latencies, blocks, q).unwrap_or(f64::NAN)
        };
        let completed = self.nominal.outcomes.iter().filter(|o| o.ok).count().max(1);
        vec![
            median(&self.setups).unwrap_or(f64::NAN),
            ms(Class::Forecast, 0.5),
            ms(Class::Forecast, 0.99),
            ms(Class::Ingest, 0.5),
            ms(Class::Ingest, 0.99),
            ms(Class::Close, 0.5),
            ms(Class::Close, 0.9),
            self.sustained_rps(workload.shape().limit_ms),
            self.check.eq8_accuracy.unwrap_or(f64::NAN),
            1000.0 * self.nominal_cpu_s / completed as f64,
            self.peak_rss_mb,
        ]
    }

    /// Failed, refused and wrong-output requests over those attempted.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}
