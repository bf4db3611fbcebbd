//! The paper's own tables and figures, registered with
//! [`crate::sweeps::registry`] next to the extension sweeps.
//!
//! An experiment whose cells are independent and slow enough to spread
//! across cores is a [`Sweep`]; every other one is a plain [`Entry`]
//! computing its single cell. Experiments that draw from one shared RNG in
//! order (`table8_lz4`, `overhead_analysis`) or run a sequential search
//! (`autotune_act_steps`) are single cells, so their draws never reorder.
//! Each entry's name is the stem of its `bench_results/<name>.json`, and
//! its table's note carries the paper's figure to compare against.

use crate::sweeps::{entry, md_section, Entry, Outcome, Sweep};
use crate::{f, pct};
use serde::{Serialize, Value};
use teco_compress::{compress, compression_ratio, Lz4Throughput, ZeroQuantCost};
use teco_cxl::controller::{run_controller, LineRequest};
use teco_cxl::{full_directory_bytes, CxlConfig, PcieGen};
use teco_dl::{ByteChangeStats, ModelSpec};
use teco_md::{position_dba_applicability, sec7_experiment, LjSystem, MdTiming};
use teco_mem::dram::{read_modify_write_trace, write_only_trace, Dram, DramConfig};
use teco_mem::{Addr, ChunkedSweep, Hierarchy, SweepGen, LINE_BYTES};
use teco_offload::convergence::{run, ConvergenceConfig, DbaSchedule, Task};
use teco_offload::{
    autotune, dpu_hiding_fraction, experiments, md_table, simulate_prefetch_step, simulate_step,
    simulate_teco_dba, simulate_zero_offload_dpu, sweep_with_workers, Calibration, DatacenterModel,
    System,
};
use teco_sim::{Bandwidth, SerialServer, SimRng, SimTime};

/// Every paper experiment, in the order the `sweep` binary runs them.
pub(crate) fn entries() -> [Entry; 24] {
    [
        Entry { name: "table1_comm_overhead", run: table1_comm_overhead },
        Entry { name: "fig2_value_changes", run: fig2_value_changes },
        Entry {
            name: "fig10_loss_lm",
            run: |workers| fig10_loss(workers, "GPT-2 proxy (LM)", Task::LanguageModel, 2e-3),
        },
        Entry {
            name: "fig10_loss_cls",
            run: |workers| {
                fig10_loss(workers, "Albert proxy (classification)", Task::Classification, 5e-3)
            },
        },
        Entry { name: "fig11_table4_speedup", run: fig11_table4_speedup },
        Entry { name: "fig12_breakdown", run: fig12_breakdown },
        entry::<Fig13DbaActivation>(),
        entry::<Table5Accuracy>(),
        Entry { name: "table6_model_size", run: table6_model_size },
        Entry { name: "table7_zeroquant", run: table7_zeroquant },
        Entry { name: "table8_lz4", run: table8_lz4 },
        Entry { name: "ablation_inval_vs_update", run: ablation_inval_vs_update },
        Entry { name: "volume_and_overhead", run: volume_and_overhead },
        Entry { name: "sec7_lammps", run: sec7_lammps },
        Entry { name: "overhead_analysis", run: overhead_analysis },
        Entry { name: "api_overhead", run: api_overhead },
        entry::<AblationDirtyBytes>(),
        Entry { name: "ablation_granularity", run: ablation_granularity },
        Entry { name: "ablation_pcie_gen", run: ablation_pcie_gen },
        Entry { name: "ablation_cpu_speed", run: ablation_cpu_speed },
        Entry { name: "baselines_comparison", run: baselines_comparison },
        Entry { name: "autotune_act_steps", run: autotune_act_steps },
        entry::<TraceReplayValidation>(),
        Entry { name: "cost_savings", run: cost_savings },
    ]
}

/// A single-cell experiment's outcome: `json` is the result document, the
/// rows render as one [`md_section`], and there is no gate.
fn outcome<T: Serialize + ?Sized>(
    json: &T,
    title: &str,
    header: &[&str],
    rows: Vec<Vec<String>>,
    note: &str,
) -> Outcome {
    let table = md_section(title, header[0], header, rows, note);
    Outcome { json: json.to_value(), table, divergences: Vec::new() }
}

/// Simulated step time in seconds for one model, batch and system.
fn step_s(cal: &Calibration, spec: &ModelSpec, batch: u32, system: System) -> f64 {
    simulate_step(cal, spec, batch, system).total.as_secs_f64()
}

// ---------------------------------------------------------------------------
// Analytic timing model
// ---------------------------------------------------------------------------

/// Table I: ZeRO-Offload's exposed-communication share, Bert-large.
fn table1_comm_overhead(_workers: usize) -> Outcome {
    let rows = experiments::table1(&Calibration::paper());
    let cells = rows
        .iter()
        .map(|r| {
            let err = (r.measured_pct - r.paper_pct).abs();
            vec![r.batch.to_string(), pct(r.measured_pct), pct(r.paper_pct), f(err)]
        })
        .collect();
    outcome(
        &rows,
        "Table I: Communication share of ZeRO-Offload training time (Bert-large)",
        &["batch", "measured", "paper", "abs err"],
        cells,
        "",
    )
}

/// Fig. 11 + Table IV: speedup over ZeRO-Offload for every Table III
/// model and batch (T5-large at batch 16 OOMs, as in the paper).
fn fig11_table4_speedup(_workers: usize) -> Outcome {
    let cells = experiments::fig11_table4(&Calibration::paper());
    let speedup = |oom: bool, x: f64| if oom { "OOM".into() } else { f(x) };
    let rows = cells
        .iter()
        .map(|c| {
            let paper = c.paper_reduction.map(f).unwrap_or_else(|| "-".into());
            let (cxl, red) = (speedup(c.oom, c.teco_cxl), speedup(c.oom, c.teco_reduction));
            vec![c.model.clone(), c.batch.to_string(), cxl, red, paper]
        })
        .collect();
    let measured: Vec<f64> = cells.iter().filter(|c| !c.oom).map(|c| c.teco_reduction).collect();
    let avg = 100.0 * (1.0 - measured.iter().map(|s| 1.0 / s).sum::<f64>() / measured.len() as f64);
    let max = 100.0 * (1.0 - 1.0 / measured.iter().fold(0.0f64, |a, &b| a.max(b)));
    outcome(
        &cells,
        "Fig 11 / Table IV: Speedup over ZeRO-Offload",
        &["model", "batch", "TECO-CXL", "TECO-Red", "paper (Red)"],
        rows,
        &format!(
            "Average training-time reduction: {avg:.1}% (paper: 33.7%, up to 55.4%); \
             maximum: {max:.1}%."
        ),
    )
}

/// Fig. 12: per-phase time breakdown of T5-large across the three
/// systems and several batch sizes.
fn fig12_breakdown(_workers: usize) -> Outcome {
    let rows = experiments::fig12_breakdown(&Calibration::paper());
    let cells = rows
        .iter()
        .map(|r| {
            let ms = [r.grad_xfer_ms, r.clip_ms, r.adam_ms, r.param_xfer_ms, r.fence_ms];
            let ms = [r.fwd_bwd_ms].into_iter().chain(ms).chain([r.total_ms]).map(f);
            [r.system.to_string(), r.batch.to_string()].into_iter().chain(ms).collect()
        })
        .collect();
    outcome(
        &rows,
        "Fig 12: Time breakdown, T5-large (ms)",
        &[
            "system",
            "batch",
            "fwd+bwd",
            "grad xfer",
            "grad opt",
            "adam",
            "param xfer",
            "fence",
            "total",
        ],
        cells,
        "Paper shape: TECO hides >=69% of exposed gradient transfer at batch <8 and all \
         of it at batch 8; TECO-CXL cuts exposed parameter transfer ~76% at batch 4; with \
         DBA the parameter transfer is completely hidden.",
    )
}

/// Table VI: model size (GPT-2 → 11B) vs TECO's speedup.
fn table6_model_size(_workers: usize) -> Outcome {
    let rows = experiments::table6(&Calibration::paper());
    let cells = rows
        .iter()
        .map(|r| {
            let (cxl, red) = (f(r.teco_cxl), f(r.teco_reduction));
            vec![r.model.clone(), cxl, f(r.paper.0), red, f(r.paper.1)]
        })
        .collect();
    outcome(
        &rows,
        "Table VI: Model-size sensitivity (batch 4, speedup over ZeRO-Offload)",
        &["model", "TECO-CXL", "paper", "TECO-Red", "paper"],
        cells,
        "",
    )
}

/// Table VII: training time of ZeRO-Quant (lossy INT8 compression with a
/// full-precision teacher) vs TECO-Reduction on Bert-base.
fn table7_zeroquant(_workers: usize) -> Outcome {
    let cal = Calibration::paper();
    let bert_base = ModelSpec {
        name: "Bert-base-uncased",
        params: 110_000_000,
        layers: 12,
        hidden: 768,
        giant_cache_mb: 270,
        act_bytes_per_token: 2_500_000,
        ..ModelSpec::bert_large()
    };
    // ~3 epochs of GLUE-MNLI at batch 32.
    let steps_to_converge = 36_800.0;
    // ZeRO-Quant runs a ZeRO-Offload schedule whose INT8 weights shrink the
    // parameter transfer to a quarter, while the teacher forward,
    // distillation and quantization kernels inflate compute.
    let zero = simulate_step(&cal, &bert_base, 8, System::ZeroOffload);
    let mut zq_step = zero.total.as_secs_f64();
    zq_step -= zero.breakdown.param_transfer_exposed.as_secs_f64() * 0.75;
    zq_step *= ZeroQuantCost::default().step_multiplier();
    let zq_hours = zq_step * steps_to_converge / 3600.0;
    let teco_hours =
        step_s(&cal, &bert_base, 8, System::TecoReduction) * steps_to_converge / 3600.0;
    outcome(
        &[("Zero-Quant", zq_hours), ("TECO-Reduction", teco_hours)],
        "Table VII: Training time, GLUE-MNLI-scale fine-tune of Bert-base",
        &["system", "hours", "paper"],
        vec![
            vec!["Zero-Quant".into(), f(zq_hours), f(5.8)],
            vec!["TECO-Reduction".into(), f(teco_hours), f(2.03)],
        ],
        &format!(
            "Ratio: {:.2}x (paper: 2.86x); the teacher model makes lossy compression far \
             slower than DBA.",
            zq_hours / teco_hours
        ),
    )
}

/// §IV-A2 ablation: stock invalidation-based MESI vs TECO's update
/// protocol.
fn ablation_inval_vs_update(_workers: usize) -> Outcome {
    let rows = experiments::ablation_inval_vs_update(&Calibration::paper());
    let avg = rows.iter().map(|r| r.penalty_pct).sum::<f64>() / rows.len() as f64;
    outcome(
        &rows,
        "Ablation: Invalidation protocol vs update protocol (step-time increase)",
        &["model", "penalty"],
        rows.iter().map(|r| vec![r.model.clone(), pct(r.penalty_pct)]).collect(),
        &format!("Average: +{avg:.1}% (paper: +56.6% average, up to +99.7%)."),
    )
}

/// §VIII-C: communication volume (DBA halves parameter bytes, never
/// touches gradients) and the exposed-communication-overhead cut.
fn volume_and_overhead(_workers: usize) -> Outcome {
    let rows = experiments::volume_summary(&Calibration::paper());
    let mb = |bytes: u64| format!("{:.0}", bytes as f64 / 1e6);
    let cells = rows
        .iter()
        .map(|r| {
            let (zero, red, grad) =
                (mb(r.param_bytes_zero), mb(r.param_bytes_red), mb(r.grad_bytes));
            let cut = pct(r.overhead_reduction_pct);
            vec![r.model.clone(), r.batch.to_string(), zero, red, grad, cut]
        })
        .collect();
    let avg = rows.iter().map(|r| r.overhead_reduction_pct).sum::<f64>() / rows.len() as f64;
    outcome(
        &rows,
        "§VIII-C: Communication volume and exposed-overhead reduction",
        &["model", "batch", "param MB (zero)", "param MB (red)", "grad MB", "overhead cut"],
        cells,
        &format!("Average exposed-overhead reduction: {avg:.1}% (paper: 93.7%, up to 100%)."),
    )
}

/// §VI: CXLFENCE's share of step time, and the snoop-filter directory the
/// update protocol spares the giant cache.
fn api_overhead(_workers: usize) -> Outcome {
    let cal = Calibration::paper();
    let (mut out, mut cells, mut directory) = (Vec::new(), Vec::new(), Vec::new());
    for spec in ModelSpec::table3() {
        let batch = if spec.name == "GCNII" { 1 } else { 4 };
        let r = simulate_step(&cal, &spec, batch, System::TecoReduction);
        let share = 100.0 * r.breakdown.fence.as_secs_f64() / r.total.as_secs_f64();
        let (fence, step) = (r.breakdown.fence.to_string(), r.total.to_string());
        cells.push(vec![spec.name.into(), batch.to_string(), fence, step, pct(share)]);
        let dir_mb = full_directory_bytes(spec.giant_cache_bytes()) as f64 / (1 << 20) as f64;
        directory.push(vec![spec.name.into(), spec.giant_cache_mb.to_string(), f(dir_mb)]);
        out.push((spec.name, share));
    }
    outcome(
        &out,
        "§VI / §IV-A2: API and fence overhead",
        &["model", "batch", "fence", "step", "share"],
        cells,
        &format!(
            "Paper: CXLFENCE (built on cudaDeviceSynchronize) takes <1% of training time.\n\n\
             The snoop-filter directory the update protocol avoids:\n\n{}",
            md_table(&["model", "giant cache MB", "directory MB"], &directory)
        ),
    )
}

/// Design ablation: does TECO still matter on PCIe 4.0 and 5.0 links?
fn ablation_pcie_gen(_workers: usize) -> Outcome {
    let bert = ModelSpec::bert_large();
    let (mut out, mut cells) = (Vec::new(), Vec::new());
    for (name, gen) in
        [("PCIe 3.0", PcieGen::Gen3), ("PCIe 4.0", PcieGen::Gen4), ("PCIe 5.0", PcieGen::Gen5)]
    {
        let mut cal = Calibration::paper();
        cal.cxl = CxlConfig { gen, ..CxlConfig::paper() };
        let zero = simulate_step(&cal, &bert, 4, System::ZeroOffload);
        let red = simulate_step(&cal, &bert, 4, System::TecoReduction);
        let s = red.speedup_over(&zero);
        let (zero_ms, red_ms) = (zero.total.as_millis_f64(), red.total.as_millis_f64());
        cells.push(vec![name.into(), f(cal.pcie_bw().gb_per_sec()), f(zero_ms), f(red_ms), f(s)]);
        out.push((name, s));
    }
    outcome(
        &out,
        "Ablation: PCIe generation sweep (Bert-large, batch 4)",
        &["link", "GB/s", "ZeRO ms", "TECO-Red ms", "speedup"],
        cells,
        "TECO's advantage shrinks as raw bandwidth grows but does not vanish: the update \
         protocol turns any exposed bulk copy into an overlapped stream, and DBA halves \
         whatever remains.",
    )
}

/// Design ablation: the faster the CPU optimizer, the less ADAM sweep
/// there is to hide the parameter stream behind, and the more DBA's
/// payload halving matters.
fn ablation_cpu_speed(_workers: usize) -> Outcome {
    let bert = ModelSpec::bert_large();
    let (mut out, mut cells) = (Vec::new(), Vec::new());
    for gbps in [60.0f64, 120.0, 240.0, 480.0, 960.0] {
        let mut cal = Calibration::paper();
        cal.cpu_mem_bw = Bandwidth::from_gb_per_sec(gbps);
        let zero = simulate_step(&cal, &bert, 4, System::ZeroOffload);
        let cxl = simulate_step(&cal, &bert, 4, System::TecoCxl);
        let red = simulate_step(&cal, &bert, 4, System::TecoReduction);
        let dba_gain = 100.0 * (red.speedup_over(&zero) / cxl.speedup_over(&zero) - 1.0);
        let ms = |t: SimTime| f(t.as_millis_f64());
        let (adam, cxl) = (ms(cal.adam_time(&bert)), ms(cxl.breakdown.param_transfer_exposed));
        let red = ms(red.breakdown.param_transfer_exposed);
        cells.push(vec![f(gbps), adam, cxl, red, pct(dba_gain)]);
        out.push((gbps, dba_gain));
    }
    outcome(
        &out,
        "Ablation: CPU optimizer speed vs DBA contribution (Bert-large, batch 4)",
        &["CPU GB/s", "adam ms", "CXL exposed", "Red exposed", "DBA gain"],
        cells,
        "As the CPU sweep accelerates, the update stream loses its overlap window and \
         TECO-CXL's exposure grows; DBA's halved payload becomes the difference between \
         hidden and exposed. The paper's 'up to 21%' DBA gain lives at the fast-CPU end.",
    )
}

/// The §I/§II software alternatives, layer-wise prefetching and
/// ZeRO-Offload's DPU, against TECO across batch sizes.
fn baselines_comparison(_workers: usize) -> Outcome {
    let cal = Calibration::paper();
    let bert = ModelSpec::bert_large();
    let (mut out, mut cells) = (Vec::new(), Vec::new());
    for batch in [4u32, 8, 16, 20] {
        let ms = |t: SimTime| t.as_millis_f64();
        let zero = ms(simulate_step(&cal, &bert, batch, System::ZeroOffload).total);
        let dpu = ms(simulate_zero_offload_dpu(&cal, &bert, batch).total);
        let pre = ms(simulate_prefetch_step(&cal, &bert, batch).total);
        let cxl = ms(simulate_step(&cal, &bert, batch, System::TecoCxl).total);
        let red = ms(simulate_step(&cal, &bert, batch, System::TecoReduction).total);
        cells.push(vec![batch.to_string(), f(zero), f(dpu), f(pre), f(cxl), f(red)]);
        out.push((batch, zero, dpu, pre, red));
    }
    let hidden = |batch| 100.0 * dpu_hiding_fraction(&cal, &bert, batch);
    outcome(
        &out,
        "Baselines: Step time (ms), Bert-large, software vs hardware hiding",
        &["batch", "ZeRO", "+DPU", "prefetch", "TECO-CXL", "TECO-Red"],
        cells,
        &format!(
            "DPU hides {:.0}% of the parameter transfer at batch 4 but {:.0}% at batch 20 \
             (§II-A: 'requires significantly large batch sizes'); prefetching is bounded by \
             per-layer transfer:compute ratios; TECO needs neither large batches nor \
             convergence-affecting staleness.",
            hidden(4),
            hidden(20)
        ),
    )
}

/// §VIII-C: the "$900K per year" datacenter arithmetic, re-derived from
/// the measured speedups.
fn cost_savings(_workers: usize) -> Outcome {
    let dc = DatacenterModel::paper();
    let (mut out, mut cells) = (Vec::new(), Vec::new());
    for c in experiments::fig11_table4(&Calibration::paper()).into_iter().filter(|c| !c.oom) {
        let saving = 1.0 - 1.0 / c.teco_reduction;
        let dollars = dc.annual_savings(saving) / 1e3;
        cells.push(vec![c.model.clone(), c.batch.to_string(), pct(100.0 * saving), f(dollars)]);
        out.push((c.model, c.batch, saving, dollars));
    }
    let avg = out.iter().map(|o| o.2).sum::<f64>() / out.len() as f64;
    outcome(
        &out,
        "§VIII-C: Datacenter cost savings (256 A100s, p4de.24xlarge pricing)",
        &["model", "batch", "time saved", "$K/yr (fleet)"],
        cells,
        &format!(
            "Annual fleet bill: ${:.2}M. The paper's arithmetic: a 7% training-time saving \
             gives ${:.0}K/yr (paper: ~$900K). At the measured average saving ({:.1}%) the \
             fleet-bill reading gives ${:.2}M/yr; the conservative utilization-weighted \
             figure is ${:.0}K/yr.",
            dc.annual_fleet_bill() / 1e6,
            dc.annual_savings(0.07) / 1e3,
            100.0 * avg,
            dc.annual_savings(avg) / 1e6,
            dc.annual_savings_training_only(avg) / 1e3
        ),
    )
}

// ---------------------------------------------------------------------------
// Hardware, generality, and link-level ablations
// ---------------------------------------------------------------------------

/// §VII: TECO on the Lennard-Jones melt (LAMMPS substitute), plus a check
/// on the live trajectory that position changes fit DBA's low two bytes.
fn sec7_lammps(_workers: usize) -> Outcome {
    let r = sec7_experiment(&MdTiming::paper(), 32_000);
    let mut rng = SimRng::seed_from_u64(3);
    let mut sys = LjSystem::fcc_melt(4, 0.8442, 1.44, 0.001, &mut rng);
    for _ in 0..30 {
        sys.step(); // pass the violent initial melt
    }
    let frac = position_dba_applicability(&mut sys, 20);
    let row = |metric: &str, measured, paper| vec![metric.into(), pct(measured), pct(paper)];
    outcome(
        &r,
        "§VII: TECO on the 3D Lennard-Jones melt (32k atoms)",
        &["metric", "measured", "paper"],
        vec![
            row("transfer share", r.baseline_transfer_pct, 27.0),
            row("improvement", r.improvement_pct, 21.5),
            row("volume cut (DBA)", r.volume_reduction_pct, 17.0),
            row("CXL contribution", r.cxl_contribution_pct, 78.0),
            row("DBA contribution", r.dba_contribution_pct, 22.0),
        ],
        &format!(
            "On the live trajectory ({} atoms), {:.1}% of per-step position word changes fit \
             in the low two bytes: positions are DBA-friendly, forces are not.",
            sys.n(),
            100.0 * frac
        ),
    )
}

/// §VIII-D: the (Dis)Aggregator's ns-scale latency hides behind the
/// ~4 ns/line link, and the Disaggregator's extra DRAM read inflates DRAM
/// cycles yet stays invisible behind GDDR's bandwidth. One RNG shuffles
/// the addresses.
fn overhead_analysis(_workers: usize) -> Outcome {
    let cfg = CxlConfig::paper();
    let seq: Vec<Addr> = (0..65_536u64).map(|i| Addr(i * 64)).collect();
    let mut shuf = seq.clone();
    SimRng::seed_from_u64(5).shuffle(&mut shuf);
    let gddr = DramConfig::gddr5();
    let (mut results, mut cells) = (Vec::new(), Vec::new());
    for (label, addrs, paper) in [("sequential", &seq, 2.48), ("shuffled", &shuf, 1.9)] {
        let w = Dram::replay(gddr, write_only_trace(addrs)).cycles;
        let rmw = Dram::replay(gddr, read_modify_write_trace(addrs)).cycles;
        let infl = rmw as f64 / w as f64;
        cells.push(vec![label.into(), w.to_string(), rmw.to_string(), f(infl), f(paper)]);
        results.push((label, infl));
    }
    outcome(
        &results,
        "§VIII-D: DBA hardware overhead (Disaggregator DRAM cycles)",
        &["access order", "W-only cyc", "R+W cyc", "inflation", "paper"],
        cells,
        &format!(
            "CXL line time {} (paper: ~4 ns/line); Aggregator latency {} (synthesized \
             1.28 ns); Disaggregator latency {} (synthesized 1.126 ns): pipelined behind the \
             link, the per-line overhead amortizes to ~0. GDDR5 (~900 GB/s) vs PCIe 3.0 \
             (16 GB/s): the extra read stream uses <4% of DRAM bandwidth, so no end-to-end \
             overhead is perceivable (the paper's conclusion).",
            cfg.cxl_bandwidth().transfer_time(64),
            cfg.aggregator_latency,
            cfg.disaggregator_latency
        ),
    )
}

/// Table VIII: LZ4 on parameter transfers — ratios the real codec measures
/// on parameter streams with model-matched exact-zero fractions, and the
/// normalized training time. One RNG feeds all four streams in order.
fn table8_lz4(_workers: usize) -> Outcome {
    let cal = Calibration::paper();
    let codec = Lz4Throughput::default();
    let mut rng = SimRng::seed_from_u64(8);
    let cases = [
        ("GPT2", ModelSpec::gpt2(), 0.065, 0.05, 4.51),
        ("Albert-xxlarge-v1", ModelSpec::albert_xxlarge(), 0.0, 0.0, 1.95),
        ("Bert-large", ModelSpec::bert_large(), 0.0, 0.0, 3.03),
        ("T5-large", ModelSpec::t5_large(), 0.42, 0.36, 2.04),
    ];
    let (mut out, mut cells) = (Vec::new(), Vec::new());
    for (name, spec, zero_frac, paper_ratio, paper_norm) in cases {
        // The ratio, measured on a 2M-parameter sample: pruned/padding
        // weights compress, live mantissas don't.
        let mut sample = Vec::with_capacity(2_000_000 * 4);
        for _ in 0..2_000_000 {
            let v = if rng.bernoulli(zero_frac) { 0f32 } else { rng.normal(0.0, 0.02) as f32 };
            sample.extend_from_slice(&v.to_le_bytes());
        }
        let ratio = compression_ratio(sample.len(), compress(&sample).len());
        // A ZeRO-Offload step whose parameter transfer runs
        // compress→link→decompress, normalized to TECO-Reduction.
        let zero = simulate_step(&cal, &spec, 4, System::ZeroOffload);
        let pipeline =
            codec.pipeline_seconds(spec.param_bytes(), ratio, cal.pcie_bw().bytes_per_sec());
        let lz4_total = zero.total.as_secs_f64()
            - zero.breakdown.param_transfer_exposed.as_secs_f64()
            + pipeline;
        let norm = lz4_total / step_s(&cal, &spec, 4, System::TecoReduction);
        let (ratio_pct, paper_pct) = (pct(100.0 * ratio), pct(100.0 * paper_ratio));
        cells.push(vec![name.into(), ratio_pct, paper_pct, f(norm), f(paper_norm)]);
        out.push((name, ratio, norm));
    }
    outcome(
        &out,
        "Table VIII: Lossless LZ4 on parameter transfers",
        &["model", "ratio", "paper ratio", "norm time", "paper"],
        cells,
        "Paper: 'compression and decompression incur large performance overhead (at \
         least 2x)'; replacing DBA with lossless compression is impractical.",
    )
}

/// Design ablation: transfer granularity (§I's coarse-grained tensor
/// transfer), from one chunk (the bulk software copy) to cache-line-like
/// streaming, on Bert-large's parameter stream.
fn ablation_granularity(_workers: usize) -> Outcome {
    let cal = Calibration::paper();
    let bert = ModelSpec::bert_large();
    let bytes = bert.param_bytes();
    let bulk_exposed = cal.cxl_bw().transfer_time(bytes);
    let (mut out, mut cells) = (Vec::new(), Vec::new());
    for chunks in [1usize, 2, 4, 8, 24, 96, 384] {
        let update_rate = cal.adam_param_production_rate(&bert);
        let stream = ChunkedSweep { total_bytes: bytes, chunks, update_rate, start: SimTime::ZERO };
        let mut link = SerialServer::new(cal.cxl_bw());
        for c in stream.chunks() {
            link.submit(c.ready, c.bytes);
        }
        let exposed = link.next_free().saturating_sub(cal.adam_time(&bert));
        let hidden = 100.0 * (1.0 - exposed.as_secs_f64() / bulk_exposed.as_secs_f64());
        cells.push(vec![chunks.to_string(), f(exposed.as_millis_f64()), f(hidden)]);
        out.push((chunks, exposed.as_millis_f64()));
    }
    let exposed = |system| simulate_step(&cal, &bert, 4, system).breakdown.param_transfer_exposed;
    outcome(
        &out,
        "Ablation: Parameter-transfer granularity (Bert-large, CXL link)",
        &["chunks", "exposed ms", "hidden %"],
        cells,
        &format!(
            "chunks=1 is the software bulk copy, fully exposed after ADAM; fine-grained \
             streaming overlaps the ADAM sweep, the §IV-A2 point of decomposing transfers to \
             cache-line granularity. End to end, the exposed parameter transfer goes from {} \
             (bulk) to {} (TECO-Reduction).",
            exposed(System::ZeroOffload),
            exposed(System::TecoReduction)
        ),
    )
}

/// Methodology validation: the paper's gem5 flow replays a cache
/// hierarchy's writeback trace through the CXL emulator. This replays a
/// vectorized-ADAM sweep's per-line writebacks (Table II hierarchy)
/// through the event-driven controller and compares the drain time with
/// the chunk-granular fast path the big simulations use.
struct TraceReplayValidation;

impl Sweep for TraceReplayValidation {
    const NAME: &'static str = "trace_replay_validation";
    /// Region size in MB.
    type Cell = u64;
    /// (region MB, trace lines, trace drain ms, chunk drain ms, error %).
    type Row = (u64, usize, f64, f64, f64);

    fn grid() -> Vec<u64> {
        vec![8, 32, 128, 256]
    }

    fn row(&mb: &u64) -> Self::Row {
        let cal = Calibration::paper();
        let cfg = CxlConfig::paper();
        let bytes = mb << 20;
        // ADAM touches `adam_bytes_per_param` per 4-byte parameter; the
        // sweep's line-store rate is cpu_mem_bw scaled to that share.
        let rate = cal.cpu_mem_bw.scaled(4.0 / cal.adam_bytes_per_param as f64);
        let sweep = SweepGen { base: Addr(0), bytes, update_rate: rate, start: SimTime::ZERO };
        let trace = sweep.writeback_trace(&mut Hierarchy::gem5());
        let reqs = trace.events.iter().enumerate();
        let reqs = reqs.map(|(id, w)| LineRequest { id, ready: w.time, bytes: LINE_BYTES as u64 });
        let des = run_controller(&cfg, reqs.collect(), SimTime::ZERO)
            .unwrap_or_else(|e| panic!("controller replay failed for {mb} MB region: {e}"));
        let chunked = ChunkedSweep {
            total_bytes: bytes,
            chunks: 48,
            update_rate: rate,
            start: SimTime::ZERO,
        };
        let mut link = SerialServer::new(cfg.cxl_bandwidth());
        for c in chunked.chunks() {
            link.submit(c.ready, c.bytes);
        }
        let fast = link.next_free();
        let err = 100.0 * (des.drain.as_secs_f64() - fast.as_secs_f64()).abs() / fast.as_secs_f64();
        (mb, trace.len(), des.drain.as_millis_f64(), fast.as_millis_f64(), err)
    }

    fn table(rows: &[Self::Row]) -> String {
        md_section(
            "Validation: Per-line trace replay vs chunked fast path",
            "region",
            &["region MB", "lines", "trace drain ms", "chunk drain ms", "err %"],
            rows.iter()
                .map(|&(mb, lines, des, fast, err)| {
                    vec![mb.to_string(), lines.to_string(), f(des), f(fast), f(err)]
                })
                .collect(),
            "The error is the end-of-iteration flush tail: lines still resident in the 16 MB \
             L3 when the sweep ends drain only afterwards (the paper's once-per-iteration \
             flush, §IV-A2). For regions far larger than L3, every Table III model, the tail \
             vanishes and the fast path matches the per-line DES replay, which justifies it \
             at billion-parameter scale.",
        )
    }

    fn json(rows: &[Self::Row]) -> Value {
        let rows: Vec<_> =
            rows.iter().map(|&(mb, _, des, fast, err)| (mb, des, fast, err)).collect();
        rows.to_value()
    }
}

// ---------------------------------------------------------------------------
// Real training
// ---------------------------------------------------------------------------

/// Fig. 2: which bytes of the parameters (a) and gradients (b) change
/// between consecutive steps, late in a real fine-tune of the small LM.
fn fig2_value_changes(_workers: usize) -> Outcome {
    // Converge first, then profile consecutive steps under a decayed
    // learning rate: §III's pre-trained Bert fine-tuned to convergence.
    let r = run(&ConvergenceConfig {
        task: Task::LanguageModel,
        steps: 600,
        profile_every: 1,
        profile_after: 450,
        lr: 2e-3,
        lr_end: Some(3e-6),
        ..Default::default()
    });
    let rows = r.param_profile.iter().enumerate().step_by(10).map(|(i, s)| {
        let ch = s.changed().max(1) as f64;
        let share = |n: u64| pct(100.0 * n as f64 / ch);
        let (last, last_two, other) = (share(s.last_byte), share(s.last_two), share(s.other));
        vec![(451 + i).to_string(), last, last_two, other, pct(100.0 * s.frac_unchanged())]
    });
    let merged = |profile: &[ByteChangeStats]| {
        let mut agg = ByteChangeStats::default();
        profile.iter().for_each(|s| agg.merge(s));
        agg
    };
    let (params, grads) = (merged(&r.param_profile), merged(&r.grad_profile));
    let last = r.param_profile.last().map_or(0.0, |s| s.frac_low_two_of_changed());
    outcome(
        &(&r.param_profile, &r.grad_profile),
        "Fig 2(a): Value-changed bytes in parameters across consecutive steps",
        &["step", "last byte", "last 2 bytes", "other", "unchanged"],
        rows.collect(),
        &format!(
            "Parameters: {:.1}% of changed words fit the low two bytes (the dirty_bytes=2 \
             target) over the profiled window, {:.1}% at its last step; the paper's ~80% is \
             its case 1 + case 2 union, and §III notes both 'become more common when the \
             training is close to converge'. Our case-1 share ({:.1}%) differs from the \
             paper's because the proxy's parameter magnitudes are smaller than Bert's (see \
             EXPERIMENTS.md).\n\n\
             Fig 2(b), gradients: only {:.1}% of changed words fit the low two bytes ('all \
             bytes in gradients frequently change'), so DBA is not applied to gradients.",
            100.0 * params.frac_low_two_of_changed(),
            100.0 * last,
            100.0 * params.frac_last_byte_of_changed(),
            100.0 * grads.frac_low_two_of_changed()
        ),
    )
}

/// Fig. 10: training-loss curves with and without TECO-Reduction (DBA).
/// The paper shows GPT-2 and ALBERT; `fig10_loss_lm` and `fig10_loss_cls`
/// train the LM and classification proxies.
fn fig10_loss(workers: usize, label: &str, task: Task, lr: f32) -> Outcome {
    let steps = 400u64;
    let schedules = [None, Some(DbaSchedule { act_aft_steps: steps / 3, dirty_bytes: 2 })];
    let runs = sweep_with_workers(&schedules, workers, |_, &dba| {
        run(&ConvergenceConfig { task, steps, lr, dba, ..Default::default() })
    });
    let (base, teco) = (&runs[0], &runs[1]);
    let rows = (0..steps as usize).step_by(25).map(|i| {
        vec![i.to_string(), format!("{:.4}", base.losses[i]), format!("{:.4}", teco.losses[i])]
    });
    outcome(
        &(&base.losses, &teco.losses),
        &format!("Fig 10: Training loss, {label} (every 25th step)"),
        &["step", "original", "TECO-Reduction"],
        rows.collect(),
        &format!(
            "Final {}: original {:.3} vs TECO-Reduction {:.3}. Paper: 'the training loss \
             curves show the similar trend and we use the same number of steps to reach \
             convergence. The impact on the convergence is minor.'",
            base.metric_name, base.final_metric, teco.final_metric
        ),
    )
}

/// Steps in the Fig 13 fine-tune.
const FIG13_STEPS: u64 = 500;

/// Fig. 13: the `act_aft_steps` sweep, perplexity vs speedup. The paper
/// picks step 500 of 1775 as the balance point. The last activation point
/// is the run length, so DBA never switches on: that cell is the no-DBA
/// baseline.
struct Fig13DbaActivation;

impl Sweep for Fig13DbaActivation {
    const NAME: &'static str = "fig13_dba_activation";
    type Cell = u64;
    /// (act_aft_steps, final perplexity, speedup over ZeRO-Offload).
    type Row = (u64, f32, f64);

    fn grid() -> Vec<u64> {
        vec![0, 50, 125, 250, 375, FIG13_STEPS]
    }

    fn row(&act: &u64) -> Self::Row {
        let steps = FIG13_STEPS;
        let (cal, gpt2) = (Calibration::paper(), ModelSpec::gpt2());
        // Before activation a step runs TECO-CXL, after it TECO-Reduction;
        // the baseline is ZeRO-Offload throughout.
        let t = |system| step_s(&cal, &gpt2, 4, system);
        let time = act as f64 * t(System::TecoCxl)
            + (steps - act.min(steps)) as f64 * t(System::TecoReduction);
        // Fine-tune from a "pre-trained checkpoint" (120 exact warmup steps).
        let dba = (act < steps).then_some(DbaSchedule { act_aft_steps: act, dirty_bytes: 2 });
        let r = run(&ConvergenceConfig { steps, pretrain_steps: 120, dba, ..Default::default() });
        (act, r.final_metric, steps as f64 * t(System::ZeroOffload) / time)
    }

    fn table(rows: &[Self::Row]) -> String {
        md_section(
            "Fig 13: DBA activation-point sweep (GPT-2 proxy; paper knee at 500/1775 steps)",
            "activation",
            &["act_after", "perplexity", "speedup"],
            rows.iter().map(|&(act, ppl, s)| vec![act.to_string(), f(ppl as f64), f(s)]).collect(),
            &format!(
                "act_after = {FIG13_STEPS} is the run length: DBA never activates, so that \
                 row is the no-DBA baseline. Paper: accuracy 22.50→21.21 across activation \
                 points, speedup 1.63→1.15; activating at the default point balances both."
            ),
        )
    }
}

/// Table V: final metric, original vs TECO-Reduction, on five proxy tasks
/// (the bit-exact DBA merge applied after `act_aft_steps`). Each cell
/// trains its proxy without and with DBA.
struct Table5Accuracy;

impl Sweep for Table5Accuracy {
    const NAME: &'static str = "table5_accuracy";
    /// (label, task, steps, learning rate).
    type Cell = (&'static str, Task, u64, f32);
    /// (label, metric name, original, TECO-Reduction).
    type Row = (&'static str, &'static str, f32, f32);

    fn grid() -> Vec<Self::Cell> {
        vec![
            ("GPT-2 proxy", Task::LanguageModel, 450, 2e-3),
            ("T5 proxy", Task::Seq2Seq, 350, 3e-3),
            ("Bert proxy", Task::Classification, 300, 5e-3),
            ("GCNII node-cls proxy", Task::Gcn, 300, 5e-3),
            ("GCNII link-pred proxy", Task::LinkPrediction, 300, 5e-3),
        ]
    }

    fn row(&(label, task, steps, lr): &Self::Cell) -> Self::Row {
        let train = |dba| {
            run(&ConvergenceConfig {
                task,
                steps,
                lr,
                pretrain_steps: 60,
                dba,
                ..Default::default()
            })
        };
        let base = train(None);
        let teco = train(Some(DbaSchedule { act_aft_steps: steps / 3, dirty_bytes: 2 }));
        (label, base.metric_name, base.final_metric, teco.final_metric)
    }

    fn table(rows: &[Self::Row]) -> String {
        let cells = rows.iter().map(|&(label, metric, base, teco)| {
            vec![label.into(), metric.into(), format!("{base:.3}"), format!("{teco:.3}")]
        });
        md_section(
            "Table V: Final model metric, original vs TECO-Reduction",
            "task",
            &["task", "metric", "original", "TECO-Red"],
            cells.collect(),
            "Paper (Table V): GPT-2 perplexity 21.05→21.54; Albert F1 84.38→83.69; Bert \
             accuracy 93.13→91.99; T5 gen-len 22.95→21.11 ('small impact on accuracy').",
        )
    }
}

/// Design ablation: `dirty_bytes` 1–4 (§V-A fixes 2 for DL), measuring the
/// speedup of the smaller payload (T5-large timing) and the accuracy cost
/// of the coarser truncation (LM-proxy training). The `None` cell trains
/// without DBA, as TECO-CXL; it is the table's reference row and stays out
/// of the JSON.
struct AblationDirtyBytes;

impl Sweep for AblationDirtyBytes {
    const NAME: &'static str = "ablation_dirty_bytes";
    type Cell = Option<u8>;
    /// (dirty_bytes, speedup over ZeRO-Offload, final perplexity).
    type Row = (Option<u8>, f64, f32);

    fn grid() -> Vec<Option<u8>> {
        vec![None, Some(1), Some(2), Some(3), Some(4)]
    }

    fn row(&dirty: &Option<u8>) -> Self::Row {
        let (cal, t5) = (Calibration::paper(), ModelSpec::t5_large());
        let zero = simulate_step(&cal, &t5, 4, System::ZeroOffload);
        let timed = match dirty {
            Some(n) => simulate_teco_dba(&cal, &t5, 4, n),
            None => simulate_step(&cal, &t5, 4, System::TecoCxl),
        };
        let conv = run(&ConvergenceConfig {
            steps: 300,
            pretrain_steps: 100,
            dba: dirty.map(|n| DbaSchedule { act_aft_steps: 100, dirty_bytes: n }),
            ..Default::default()
        });
        (dirty, timed.speedup_over(&zero), conv.final_metric)
    }

    fn table(rows: &[Self::Row]) -> String {
        let cells = rows.iter().map(|&(dirty, speedup, ppl)| {
            let (label, payload) = match dirty {
                Some(n) => (n.to_string(), 16 * n as u32),
                None => ("no DBA".into(), 64),
            };
            vec![label, format!("{payload} B/line"), f(speedup), f(ppl as f64)]
        });
        md_section(
            "Ablation: dirty_bytes sweep (T5-large timing + LM-proxy accuracy)",
            "dirty_bytes",
            &["dirty", "payload", "speedup", "perplexity"],
            cells.collect(),
            "dirty_bytes=2 is the knee: near-max speedup at near-baseline accuracy, matching \
             §V-A's choice ('the parameter-value change happens mostly in the least \
             significant two bytes').",
        )
    }

    fn json(rows: &[Self::Row]) -> Value {
        rows.iter().filter(|r| r.0.is_some()).collect::<Vec<_>>().to_value()
    }
}

/// §V-A: Bayesian optimization (GP + EI) of `act_aft_steps`, on an
/// objective of final perplexity plus a penalty on the un-accelerated
/// prefix of training (the Fig 13 trade-off).
fn autotune_act_steps(workers: usize) -> Outcome {
    let steps = 400u64;
    let (cal, gpt2) = (Calibration::paper(), ModelSpec::gpt2());
    let t_cxl = step_s(&cal, &gpt2, 4, System::TecoCxl);
    let t_red = step_s(&cal, &gpt2, 4, System::TecoReduction);
    let lambda = 4.0;
    let domain: Vec<f64> = (0..=8).map(|i| (i * 50) as f64).collect();
    // BO only samples domain points, so the expensive convergence runs are
    // pre-evaluated in parallel and the sequential BO loop reads the memo;
    // its decisions and recorded evaluations are unchanged.
    let memo = sweep_with_workers(&domain, workers, |_, &x| {
        let act = x.round() as u64;
        let dba = Some(DbaSchedule { act_aft_steps: act, dirty_bytes: 2 });
        (act, run(&ConvergenceConfig { steps, pretrain_steps: 100, dba, ..Default::default() }))
    });
    let mut evals = Vec::new();
    let mut objective = |x: f64| -> f64 {
        let act = x.round() as u64;
        let (_, r) = memo.iter().find(|(a, _)| *a == act).expect("BO samples only domain points");
        let time = act as f64 * t_cxl + (steps - act.min(steps)) as f64 * t_red;
        let norm_time = time / (steps as f64 * t_red);
        let score = r.final_metric as f64 + lambda * norm_time;
        evals.push((act, r.final_metric, norm_time, score));
        score
    };
    let result = autotune::minimize(&mut objective, &domain, 3, 5, 2024);
    evals.sort_by_key(|e| e.0);
    let cells =
        evals.iter().map(|&(act, ppl, nt, s)| vec![act.to_string(), f(ppl as f64), f(nt), f(s)]);
    outcome(
        &evals,
        "Autotune: Bayesian optimization of act_aft_steps (GPT-2 proxy)",
        &["act_after", "perplexity", "norm time", "objective"],
        cells.collect(),
        &format!(
            "BO chose act_aft_steps = {} (objective {:.3}) in {} evaluations of a {}-point \
             domain. Paper (§V-A): the default 500 'strikes a balance'; BO finds the knee \
             automatically.",
            result.best_x as u64,
            result.best_y,
            result.history.len(),
            domain.len()
        ),
    )
}
