//! Cross-crate determinism: every stochastic component is seeded, so every
//! experiment must be bit-reproducible run to run. These tests re-run
//! representative pipelines twice and require identical outputs — the
//! property that makes EXPERIMENTS.md's numbers stable.

use teco::dl::data::MarkovTextGen;
use teco::dl::{AdamConfig, OffloadedAdam, TinyGpt, TinyGptConfig, Visitable};
use teco::md::{sec7_experiment, LjSystem, MdTiming};
use teco::offload::convergence::{run, ConvergenceConfig, DbaSchedule, Task};
use teco::offload::{autotune, experiments, Calibration};
use teco::sim::SimRng;

#[test]
fn convergence_runs_are_bit_identical() {
    for task in [Task::LanguageModel, Task::Classification, Task::Gcn, Task::Seq2Seq] {
        let cfg = ConvergenceConfig {
            task,
            steps: 40,
            lr: 3e-3,
            dba: Some(DbaSchedule { act_aft_steps: 10, dirty_bytes: 2 }),
            ..Default::default()
        };
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.losses, b.losses, "{task:?} losses diverged");
        assert_eq!(a.final_metric.to_bits(), b.final_metric.to_bits());
    }
}

#[test]
fn full_training_with_dba_is_reproducible() {
    let train = || {
        let mut rng = SimRng::seed_from_u64(321);
        let gen = MarkovTextGen::new(16, 2, &mut rng);
        let cfg = TinyGptConfig { vocab: 16, dim: 16, heads: 2, layers: 1, max_seq: 10 };
        let mut m = TinyGpt::new(cfg, &mut rng);
        let mut opt = OffloadedAdam::new(AdamConfig::default());
        let mut data_rng = rng.fork("d");
        for step in 0..30u64 {
            let seq = gen.sample(8, &mut data_rng);
            m.zero_grads();
            m.train_sequence(&seq, 1.0);
            if step >= 10 {
                opt.step_with_writeback(&mut m, &mut |_, old, new| {
                    teco::offload::dba_merge_bits(old, new, 2)
                });
            } else {
                opt.step(&mut m);
            }
        }
        let mut bits = Vec::new();
        m.visit_params(&mut |p| bits.extend(p.value.iter().map(|v| v.to_bits())));
        bits
    };
    assert_eq!(train(), train());
}

#[test]
fn md_trajectory_is_reproducible() {
    let run_md = || {
        let mut rng = SimRng::seed_from_u64(5);
        let mut sys = LjSystem::fcc_melt(3, 0.8442, 1.44, 0.002, &mut rng);
        for _ in 0..40 {
            sys.step();
        }
        (sys.total_energy(), sys.position_stream())
    };
    let (e1, p1) = run_md();
    let (e2, p2) = run_md();
    assert_eq!(e1.to_bits(), e2.to_bits());
    assert_eq!(p1.len(), p2.len());
    for (a, b) in p1.iter().zip(&p2) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    let s1 = sec7_experiment(&MdTiming::paper(), 32_000);
    let s2 = sec7_experiment(&MdTiming::paper(), 32_000);
    assert_eq!(s1.improvement_pct.to_bits(), s2.improvement_pct.to_bits());
}

#[test]
fn timing_experiments_are_reproducible() {
    let cal = Calibration::paper();
    let go = || {
        let t1: Vec<f64> = experiments::table1(&cal).iter().map(|r| r.measured_pct).collect();
        let t6: Vec<f64> = experiments::table6(&cal).iter().map(|r| r.teco_reduction).collect();
        let ab: Vec<f64> =
            experiments::ablation_inval_vs_update(&cal).iter().map(|r| r.penalty_pct).collect();
        (t1, t6, ab)
    };
    let a = go();
    let b = go();
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

/// Registry entries too slow for a debug test: each trains proxy models
/// for hundreds of steps or replays a per-line trace (`table5_accuracy`
/// alone takes ~80 s in debug). The CI sweeps job covers them: it runs
/// every entry once on all cores and once under `taskset -c 0` (one
/// worker) and diffs the two, then diffs both against the committed JSON.
const TRAINING_BOUND: [&str; 9] = [
    "fig2_value_changes",
    "fig10_loss_lm",
    "fig10_loss_cls",
    "fig13_dba_activation",
    "table5_accuracy",
    "table8_lz4",
    "ablation_dirty_bytes",
    "autotune_act_steps",
    "trace_replay_validation",
];

/// The experiment matrix behind `bench_results/*.json`: every registered
/// experiment's JSON (except [`TRAINING_BOUND`]) must be byte-identical
/// between a serial run (workers = 1) and a parallel run (the core count
/// `sweep` would use). Two separate runs, so this also pins run-to-run
/// determinism — the property that lets the CI sweeps job diff two runs.
#[test]
fn sweep_json_is_byte_identical_across_runs_and_worker_counts() {
    let parallel = teco::dl::num_cores().max(2);
    let registry = teco_bench::sweeps::registry();
    for name in TRAINING_BOUND {
        assert!(registry.iter().any(|e| e.name == name), "{name} is not a registry entry");
    }
    for sweep in registry.iter().filter(|e| !TRAINING_BOUND.contains(&e.name)) {
        let json = |workers| serde_json::to_string(&(sweep.run)(workers).json).unwrap();
        assert_eq!(json(1), json(parallel), "{} diverged between serial and parallel", sweep.name);
    }
}

#[test]
fn bayesian_optimizer_is_reproducible() {
    let run_bo = || {
        let mut f = |x: f64| (x - 5.0).powi(2) + (x * 3.0).sin();
        let domain: Vec<f64> = (0..=20).map(|i| i as f64 * 0.5).collect();
        let r = autotune::minimize(&mut f, &domain, 3, 6, 99);
        (r.best_x, r.history.len())
    };
    assert_eq!(run_bo(), run_bo());
}
