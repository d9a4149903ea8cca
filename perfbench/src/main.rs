//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --bin-dir <dir> [--out-dir <dir>]`: one measurement; the last stdout
//! line is the JSON result.

use perfbench::e2e::{self, latency_source, END_TO_END};
use perfbench::plan::{Class, Plan, Workload};
use perfbench::trace;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut bin_dir = None;
    let mut out_dir = PathBuf::from(".perfbench");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("missing value for {arg}"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(1.0..=600.0).contains(&seconds) {
                    return Err("--seconds must be within 1..=600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value()?)),
            "--out-dir" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
        out_dir,
    })
}

/// One `{"name":{"value":v,"unit":"u"}}` member.
fn json_metric(name: &str, value: f64, unit: &str) -> String {
    format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let plan = Plan::generate(args.workload, args.seed, args.seconds);
    println!(
        "perfbench workload={} seed={} seconds={} trace={} stream=fnv1a64:{:016x} nproc={} plan_s={:.2}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        plan.stream_hash(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        started.elapsed().as_secs_f64(),
    );
    if args.trace {
        return match trace::run(&plan, &args.bin_dir, &args.out_dir) {
            Ok(report) => report.finish(),
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(1)
            }
        };
    }
    let run = match e2e::run(&plan, &args.bin_dir) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for t in &run.tallies {
        println!(
            "phase {} sent={} ok={} failed={} gen_lag_p99_ms={:.3}",
            t.name, t.sent, t.ok, t.failed, t.lag_p99_ms
        );
    }
    for v in &run.verdicts {
        println!(
            "rung offered_rps={:.1} achieved_rps={:.1} tail_ms={:.2} pass={}",
            v.offered_rps, v.achieved_rps, v.tail_ms, v.pass
        );
    }
    for class in [Class::Forecast, Class::Ingest, Class::Close] {
        println!(
            "source {} latency from the {} phase",
            class.name(),
            latency_source(args.workload, class).name()
        );
    }
    println!(
        "check compared={} mismatched={}",
        run.check.compared, run.check.mismatched
    );
    println!("metric error_rate {} fraction", run.error_rate());
    let mut json = Vec::new();
    for (m, value) in END_TO_END.iter().zip(run.metrics(args.workload)) {
        let gate = if m.gated { "" } else { " (ungated)" };
        println!("metric {} {value} {}{gate}", m.name, m.unit);
        if m.gated {
            json.push(json_metric(m.name, value, m.unit));
        }
    }
    if let Err(reason) = &run.valid {
        // The client set these numbers, not the system: no result.
        println!("run valid=false reason={reason}");
        return ExitCode::from(3);
    }
    let correct = run.failed == 0 && run.check.eq8_accuracy.is_some();
    println!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        run.attempted,
        run.failed,
        json.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
