//! The repository's benchmark: end-to-end and per-layer metrics of the
//! TECO simulator on three workloads, measured from outside the library
//! through its public API.
//!
//! ```text
//! perfbench --workload <gpt2-step|fabric-allreduce|tiered-faulty>
//!           [--seed N] [--seconds S] [--trace 0|1] [--size full|smoke]
//! ```
//!
//! Load model: closed loop, one client (the training loop) on one thread
//! running step after step for `--seconds` (and at least the workload's
//! digest window). Inputs are generated from `--seed` before timing
//! starts. `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer metrics from a traced run. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod counters;
mod reference;
mod replay;
mod report;
mod run;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use workloads::{Kind, Size};

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// A second seed kept out of tuning, to check claims on unseen inputs.
pub const HELD_OUT_SEED: u64 = 20_241_117;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut kind = None;
    let mut out = Args {
        kind: Kind::Gpt2Step,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds.is_finite() && out.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got `{v}`")),
                }
            }
            "--size" => {
                let v = value()?;
                out.size = [Size::Full, Size::Smoke]
                    .into_iter()
                    .find(|s| s.name() == v)
                    .ok_or_else(|| format!("--size takes full or smoke, got `{v}`"))?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    out.kind = kind.ok_or("--workload is required")?;
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let cfg = run::RunConfig {
        kind: args.kind,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        size: args.size,
    };
    let result = match run::run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let recorded = report::check_digest_record(&cfg, result.digest);
    for line in report::render(&cfg, &result, &recorded) {
        println!("{line}");
    }
    if !(result.correct && recorded.is_ok()) {
        std::process::exit(1);
    }
}
