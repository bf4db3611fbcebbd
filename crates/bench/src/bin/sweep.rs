//! Run the experiment sweeps of [`teco_bench::sweeps::registry`]:
//! `sweep` runs all eight, `sweep NAME...` the named ones.
//!
//! Each sweep computes its rows on every core (the rows never depend on
//! the worker count), prints the markdown table REPORT.md uses, writes
//! `bench_results/<NAME>.json`, and reports every divergence from its
//! gate. The process exits nonzero when any gate failed or any JSON could
//! not be written. Everything is seeded: two runs write byte-identical
//! JSON, which the CI sweeps job checks against each other and against
//! the committed copies.

use teco_bench::dump_json;
use teco_bench::sweeps::{registry, Entry};

fn main() {
    let all = registry();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<Entry> = if args.is_empty() {
        all.to_vec()
    } else {
        args.iter()
            .map(|name| {
                *all.iter().find(|e| e.name == name).unwrap_or_else(|| {
                    let known: Vec<&str> = all.iter().map(|e| e.name).collect();
                    eprintln!("unknown sweep `{name}`; known sweeps: {}", known.join(" "));
                    std::process::exit(2)
                })
            })
            .collect()
    };
    let mut failed = 0usize;
    for sweep in selected {
        let out = (sweep.run)(teco_dl::num_cores());
        println!("\n{}", out.table);
        dump_json(sweep.name, &out.json);
        for d in &out.divergences {
            eprintln!("{}: DIVERGENCE: {d}", sweep.name);
        }
        failed += out.divergences.len();
    }
    if failed > 0 {
        eprintln!("{failed} divergence(s)");
        std::process::exit(1);
    }
}
