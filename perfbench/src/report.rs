//! Output: host metadata, the human-readable report, the final result
//! line, the written-out trace, and the cross-run digest record.

use crate::counters::fnv1a;
use crate::run::{Metric, RunConfig, RunResult};
use std::fmt::Write as _;
use std::path::PathBuf;

/// A JSON string literal.
fn js(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: every digit as measured (non-finite values become 0).
fn jn(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metrics_json(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| format!("{}:{{\"value\":{},\"unit\":{}}}", js(m.name), jn(m.value), js(m.unit)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

/// The git commit of the checkout the benchmark runs in, read from `.git`
/// in the working directory ("unknown" outside a git checkout).
fn git_commit() -> String {
    let head = match read_trimmed(".git/HEAD") {
        Some(h) => h,
        None => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(c) = read_trimmed(&format!(".git/{reference}")) {
        return c;
    }
    read_trimmed(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_once(' ').map(|(c, _)| c.to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Host metadata recorded with every result, so figures from different
/// hosts are never compared blindly.
pub fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = read_trimmed("/proc/cpuinfo")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .map(|l| l.split_once(':').map_or(String::new(), |(_, v)| v.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into());
    let mut caches = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Some(level), Some(size), Some(kind)) = (
            read_trimmed(&format!("{dir}/level")),
            read_trimmed(&format!("{dir}/size")),
            read_trimmed(&format!("{dir}/type")),
        ) else {
            break;
        };
        if kind != "Instruction" && level != "1" {
            caches.push(format!("{}:{}", js(&format!("l{level}")), js(&size)));
        }
    }
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},{}\"rustc\":{},\"commit\":{}}}",
        js(&cpu),
        caches.iter().map(|c| format!("{c},")).collect::<String>(),
        js(env!("PERFBENCH_RUSTC")),
        js(&git_commit())
    )
}

/// The build directory the benchmark binary runs from (`<target>/release`'s
/// parent); run records and traces are written under it.
fn target_dir() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    Some(exe.parent()?.parent()?.to_path_buf())
}

/// The cross-run digest check: the first run of a (binary, workload, size,
/// seed) records its digest; every later run, traced or not, must match it.
pub fn check_digest_record(cfg: &RunConfig, digest: u64) -> Result<(), String> {
    let Some(dir) = target_dir().map(|t| t.join("perfbench-digests")) else {
        return Ok(());
    };
    let exe = std::env::current_exe().and_then(std::fs::read).map_err(|e| e.to_string())?;
    let path = dir.join(format!(
        "{:016x}-{}-{}-{}",
        fnv1a(&exe),
        cfg.kind.name(),
        cfg.size.name(),
        cfg.seed
    ));
    let ours = format!("{digest:016x}");
    match std::fs::read_to_string(&path) {
        Ok(theirs) if theirs.trim() == ours => Ok(()),
        Ok(theirs) => Err(format!(
            "simulated-state digest {ours} differs from {} recorded by an earlier run with \
             the same seed",
            theirs.trim()
        )),
        Err(_) => {
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            std::fs::write(&path, &ours).map_err(|e| e.to_string())
        }
    }
}

/// Write the traced run's spans as a Chrome trace under the build
/// directory; returns where.
fn write_trace(cfg: &RunConfig, trace: &str) -> Option<PathBuf> {
    let dir = target_dir()?.join("perfbench-traces");
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("{}-{}-seed{}.json", cfg.kind.name(), cfg.size.name(), cfg.seed));
    std::fs::write(&path, trace).ok()?;
    Some(path)
}

/// Every output line; the last is the result object.
pub fn render(cfg: &RunConfig, r: &RunResult, recorded: &Result<(), String>) -> Vec<String> {
    let mut lines = Vec::new();
    let mut errors = r.errors.clone();
    if let Err(e) = recorded {
        errors.push(e.clone());
    }
    let trace_path = r.chrome_trace.as_deref().and_then(|t| write_trace(cfg, t));
    for (name, t) in &r.span_totals {
        lines.push(format!(
            "# span {name:<40} calls {:>8} units {:>12} total_ms {:>12.3} self_ms {:>12.3}",
            t.calls,
            t.units,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    for m in r.end_to_end.iter().chain(&r.per_layer) {
        lines.push(format!("# {:<44} {:>20} {}", m.name, jn(m.value), m.unit));
    }
    lines.push(format!(
        "# report {{\"workload\":{},\"seed\":{},\"size\":{},\"trace\":{},\"host\":{},\
         \"digest\":\"{:016x}\",\"digest_steps\":{},\"tail\":{},\
         \"sim_model\":\"unvalidated: no reference measurement, no error figure\",\
         \"trace_file\":{},\"errors\":[{}],\"end_to_end\":{},\"step_ms\":[{}],\"step_rel\":[{}]}}",
        js(cfg.kind.name()),
        cfg.seed,
        js(cfg.size.name()),
        cfg.trace as u8,
        host_json(),
        r.digest,
        r.digest_steps,
        js(&r.tail_label),
        trace_path.map_or("null".into(), |p| js(&p.display().to_string())),
        errors.iter().map(|e| js(e)).collect::<Vec<_>>().join(","),
        metrics_json(&r.end_to_end),
        r.step_ms.iter().map(|&v| format!("{v:.3}")).collect::<Vec<_>>().join(","),
        r.step_rel.iter().map(|&v| format!("{v:.2}")).collect::<Vec<_>>().join(","),
    ));
    let gated: Vec<Metric> = if cfg.trace {
        r.per_layer.clone()
    } else {
        r.end_to_end.iter().filter(|m| GATED.contains(&m.name)).cloned().collect()
    };
    lines.push(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        r.correct && recorded.is_ok(),
        r.attempted,
        r.failed,
        metrics_json(&gated)
    ));
    lines
}

/// The end-to-end metrics the result line carries, each with a bound in
/// `BENCHMARK.json`. The raw host times (`step_wall_ms`, its tail,
/// `sim_lines_per_s`) follow the shared host's contention from run to run
/// far beyond any useful bound, so the gate reads step time in reference-
/// probe units instead. `sim_step_us` is exact per seed and `failed_ratio`
/// is zero on a passing run, so neither can be judged by a share of its
/// median. All of them stay in the report line; the result line carries
/// `failed_ratio` as `failed`/`attempted`.
pub const GATED: [&str; 4] = ["step_wall_rel", "step_wall_rel_tail", "setup_s", "peak_rss_mb"];
