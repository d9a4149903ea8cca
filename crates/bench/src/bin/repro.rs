//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! Usage: repro [--scale S] [EXPERIMENT...]
//!
//! EXPERIMENT: fig2 fig3 fig4 fig5 fig6 fig7a fig7b table1 table2
//!             compare ablation-phi ablation-growth ablation-spatial wave sensitivity convergence properties all
//! ```
//!
//! With no arguments (or `all`), runs everything at full scale
//! (20,000 users). `--scale 0.1` shrinks the world for a quick pass.
//! An unknown experiment name prints the list and exits nonzero before
//! any world is generated.

use dlm_bench::experiments::{
    ablation_growth, ablation_phi, ablation_spatial_growth, compare_baselines,
    convergence_analysis, figure2, figure3, figure4, figure5, figure6, figure7a_table1,
    figure7b_table2, sensitivity_analysis, verify_theory, wave_analysis, ExperimentContext,
    PredictionExperiment, Protocol,
};
use std::process::ExitCode;

/// Every experiment [`run`] answers to; `all` selects them all.
const EXPERIMENTS: &[&str] = &[
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7a",
    "fig7b",
    "table1",
    "table2",
    "compare",
    "ablation-phi",
    "ablation-growth",
    "ablation-spatial",
    "wave",
    "sensitivity",
    "convergence",
    "properties",
];

/// The first requested name that is neither an experiment nor `all`.
fn unknown_experiment(wanted: &[String]) -> Option<&str> {
    wanted
        .iter()
        .map(String::as_str)
        .find(|w| *w != "all" && !EXPERIMENTS.contains(w))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1.0f64;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(s) if s > 0.0 => scale = s,
                _ => {
                    eprintln!("error: --scale needs a positive number");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!(
                    "Usage: repro [--scale S] [EXPERIMENT...]\nExperiments: {} all",
                    EXPERIMENTS.join(" ")
                );
                return ExitCode::SUCCESS;
            }
            other => wanted.push(other.to_string()),
        }
    }
    if wanted.is_empty() {
        wanted.push("all".into());
    }
    // Checked before the world generates, which is the slow part.
    if let Some(name) = unknown_experiment(&wanted) {
        eprintln!(
            "error: unknown experiment `{name}`\nExperiments: {} all",
            EXPERIMENTS.join(" ")
        );
        return ExitCode::FAILURE;
    }
    if let Err(e) = run(scale, &wanted) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn run(scale: f64, wanted: &[String]) -> dlm_bench::experiments::Result<()> {
    let all = wanted.iter().any(|w| w == "all");
    let want = |name: &str| all || wanted.iter().any(|w| w == name);

    println!("# dlm reproduction run (scale = {scale})");
    println!("# Generating synthetic world + four representative cascades...\n");
    let ctx = ExperimentContext::generate(scale)?;
    println!(
        "world: {} users, {} follow edges; cascades: {}\n",
        ctx.world().user_count(),
        ctx.world().graph().edge_count(),
        ctx.cascades()
            .iter()
            .zip(ctx.presets())
            .map(|(c, p)| format!("{}={} votes", p.name, c.vote_count()))
            .collect::<Vec<_>>()
            .join(", ")
    );

    if want("fig2") {
        println!("## Figure 2 — fraction of reachable users per friendship hop");
        println!("{:<8}s1       s2       s3       s4", "hop");
        let series = figure2(&ctx)?;
        let max_hops = series.iter().map(|s| s.fractions.len()).max().unwrap_or(0);
        for hop in 0..max_hops.min(10) {
            print!("{:<8}", hop + 1);
            for s in &series {
                match s.fractions.get(hop) {
                    Some(f) => print!("{f:<9.3}"),
                    None => print!("{:<9}", "-"),
                }
            }
            println!();
        }
        println!();
    }

    if want("fig3") {
        println!("## Figure 3 — density of influenced users over 50 h (friendship hops)");
        for panel in figure3(&ctx, 50)? {
            println!("--- story {} ---", panel.story);
            print_matrix_sampled(&panel.matrix);
            println!(
                "saturation (95%) hours per hop: {:?}; monotone-in-distance: {}",
                panel.summary.saturation_hours, panel.summary.monotone_in_distance
            );
        }
        println!();
    }

    if want("fig4") {
        println!("## Figure 4 — s1 density vs distance, one line per hour");
        let data = figure4(&ctx, 50)?;
        for (i, profile) in data.profiles.iter().enumerate() {
            if i % 7 == 0 || i + 1 == data.profiles.len() {
                let cells: Vec<String> = profile.iter().map(|v| format!("{v:6.2}")).collect();
                println!("t={:<3} {}", i + 1, cells.join(" "));
            }
        }
        let early: f64 = data.increments[..5].iter().sum::<f64>() / 5.0;
        let late: f64 = data.increments[data.increments.len() - 5..]
            .iter()
            .sum::<f64>()
            / 5.0;
        println!("mean hourly increment: first 5 h = {early:.3}, last 5 h = {late:.3} (shrinking => decreasing r(t))\n");
    }

    if want("fig5") {
        println!("## Figure 5 — density of influenced users over 50 h (shared interests)");
        for panel in figure5(&ctx, 50)? {
            println!("--- story {} ---", panel.story);
            print_matrix_sampled(&panel.matrix);
            println!(
                "monotone-in-distance: {}",
                panel.summary.monotone_in_distance
            );
        }
        println!();
    }

    if want("fig6") {
        println!("## Figure 6 — growth rate r(t) = 1.4 exp(-1.5(t-1)) + 0.25");
        for (t, r) in figure6(5.0, 9) {
            println!("t = {t:<5.1} r = {r:.4}");
        }
        println!();
    }

    if want("fig7a") || want("table1") {
        let exp = figure7a_table1(&ctx, Protocol::CalibratedFull)?;
        if want("fig7a") {
            println!("## Figure 7a — predicted vs actual density, s1, friendship hops");
            print_fig7(&exp);
        }
        if want("table1") {
            println!("## Table I — prediction accuracy, friendship hops (calibrated, fit 2-6)");
            println!("{}", exp.table);
            if exp.calibrated {
                println!("fitted: {}\n", format_params(&exp.fitted_params));
            }
            let paper = figure7a_table1(&ctx, Protocol::PaperConstants)?;
            println!("(reference) paper constants K=25 d=0.01 Eq.7 r(t):");
            println!("{}", paper.table);
            let early = figure7a_table1(&ctx, Protocol::CalibratedEarly)?;
            println!("(reference) calibrated on hours 2-3 only (honest forecast):");
            println!("{}", early.table);
        }
    }

    if want("fig7b") || want("table2") {
        let exp = figure7b_table2(&ctx, Protocol::CalibratedFull)?;
        if want("fig7b") {
            println!("## Figure 7b — predicted vs actual density, s1, shared interests");
            print_fig7(&exp);
        }
        if want("table2") {
            println!("## Table II — prediction accuracy, shared interests (calibrated, fit 2-6)");
            println!("{}", exp.table);
            let early = figure7b_table2(&ctx, Protocol::CalibratedEarly)?;
            println!("(reference) calibrated on hours 2-3 only — note the farthest group degrading, the paper's Table II distance-5 effect:");
            println!("{}", early.table);
        }
    }

    if want("compare") {
        println!("## Model zoo comparison — mean Eq.-8 accuracy on s1 (hops, hours 2-6)");
        println!("(one EvaluationPipeline::run over the registered models)");
        let report = compare_baselines(&ctx)?;
        for (spec, overall) in report.ranking() {
            match overall {
                Some(a) => println!("{spec:<52} {:6.2}%", a * 100.0),
                None => println!("{spec:<52} {:>7}", "-"),
            }
        }
        println!();
    }

    if want("ablation-phi") {
        println!("## Ablation — phi construction (shared calibrated parameters)");
        for (name, acc) in ablation_phi(&ctx)? {
            match acc {
                Some(a) => println!("{name:<28} {:6.2}%", a * 100.0),
                None => println!("{name:<28} {:>7}", "-"),
            }
        }
        println!();
    }

    if want("ablation-growth") {
        println!("## Ablation — decaying vs constant growth rate");
        for (name, acc) in ablation_growth(&ctx)? {
            match acc {
                Some(a) => println!("{name:<44} {:6.2}%", a * 100.0),
                None => println!("{name:<44} {:>7}", "-"),
            }
        }
        println!();
    }

    if want("ablation-spatial") {
        println!("## Ablation — global r(t) vs per-distance r(x,t) (paper's future work), interest metric");
        for (name, acc) in ablation_spatial_growth(&ctx)? {
            match acc {
                Some(a) => println!("{name:<36} {:6.2}%", a * 100.0),
                None => println!("{name:<36} {:>7}", "-"),
            }
        }
        println!();
    }

    if want("wave") {
        println!(
            "## Fisher-wave validation — measured vs theoretical front speed c* = 2*sqrt(r*d)"
        );
        for (label, m) in wave_analysis()? {
            println!(
                "{label:<32} measured {:.4}  theoretical {:.4}  rel.err {:.1}%",
                m.measured,
                m.theoretical,
                m.relative_error * 100.0
            );
        }
        println!("(pulled fronts approach c* from below — Bramson correction)\n");
    }

    if want("sensitivity") {
        println!("## Parameter sensitivities (elasticities) around the paper's hop setting");
        let report = sensitivity_analysis(&ctx)?;
        for sens in &report.sensitivities {
            println!(
                "{:<4} mean elasticity {:+7.3}   max |elasticity| {:6.3}",
                sens.parameter, sens.mean_elasticity, sens.max_elasticity
            );
        }
        if let Some(top) = report.most_influential() {
            println!("most influential: {}\n", top.parameter);
        }
    }

    if want("convergence") {
        println!("## Grid convergence of the Crank-Nicolson solver (probe I(3, 6))");
        let s = convergence_analysis()?;
        println!(
            "observed order {:.2} (expected ~2), extrapolated {:.6}, fine-grid error est {:.2e}\n",
            s.observed_order, s.extrapolated, s.fine_error_estimate
        );
    }

    if want("properties") {
        println!("## Theory — Section II.C properties on s1's fitted model");
        let report = verify_theory(&ctx)?;
        println!(
            "unique-property bounds (0 <= I <= K = {}): {} (observed [{:.4}, {:.4}])",
            report.capacity,
            if report.bounds_hold {
                "HOLD"
            } else {
                "VIOLATED"
            },
            report.min_value,
            report.max_value
        );
        println!(
            "strictly-increasing property: {} (worst decrease {:.2e}; phi lower-solution: {})\n",
            if report.increasing_holds {
                "HOLDS"
            } else {
                "VIOLATED"
            },
            report.worst_decrease,
            report.phi_is_lower_solution
        );
    }

    Ok(())
}

fn format_params(params: &[(String, f64)]) -> String {
    params
        .iter()
        .map(|(name, value)| format!("{name} = {value:.4}"))
        .collect::<Vec<_>>()
        .join(", ")
}

fn print_matrix_sampled(matrix: &dlm_cascade::DensityMatrix) {
    let hours: Vec<u32> = [1u32, 5, 10, 20, 30, 40, 50]
        .iter()
        .copied()
        .filter(|&h| h <= matrix.max_hour())
        .collect();
    print!("{:<6}", "d\\t");
    for h in &hours {
        print!("{h:>8}");
    }
    println!();
    for d in 1..=matrix.max_distance() {
        print!("{d:<6}");
        for &h in &hours {
            print!("{:>8.2}", matrix.at(d, h).unwrap_or(f64::NAN));
        }
        println!();
    }
}

fn print_fig7(exp: &PredictionExperiment) {
    println!(
        "(solid = DL prediction, obs = actual; rows are hours, columns distances {:?})",
        exp.distances
    );
    let cells = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:6.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("t=1 obs  {}   (= phi knots)", cells(&exp.observed[0]));
    for (i, pred) in exp.predicted.iter().enumerate() {
        let h = i + 2;
        println!("t={h} obs  {}", cells(&exp.observed[i + 1]));
        println!("t={h} pred {}", cells(pred));
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn unknown_experiment_names_are_rejected() {
        assert_eq!(unknown_experiment(&names(&["tabel1"])), Some("tabel1"));
        assert_eq!(
            unknown_experiment(&names(&["table1", "fig9", "compare"])),
            Some("fig9")
        );
        let mut every = names(EXPERIMENTS);
        every.push("all".into());
        assert_eq!(unknown_experiment(&every), None);
        // The list is the dispatcher's: every name `run` tests for is on it.
        for piece in include_str!("repro.rs").split("want(\"").skip(1) {
            let name = piece.split('"').next().expect("quoted name");
            assert!(
                EXPERIMENTS.contains(&name),
                "`{name}` missing from EXPERIMENTS"
            );
        }
    }
}
