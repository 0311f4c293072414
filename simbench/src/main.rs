//! `simbench` — run one benchmark workload and print its metrics.
//!
//! ```text
//! simbench --workload proposal_m|gpu_solo|cpu_mix [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` (default) repeats whole passes over the workload while
//! another pass fits in `--seconds` (default 40) and prints the
//! end-to-end metrics. `--trace 1` runs
//! the workload once with fast-forward on, once strictly cycle by cycle
//! and once through the traced loop, checks that all three agree, and
//! prints the per-layer metrics. The last line of standard output is one
//! JSON object `{"correct","attempted","failed","metrics"}`; the line
//! before it carries the simulated outcomes and the `result_digest`.
//!
//! Exit codes: 0 = ran (see `correct`), 1 = traced loop diverged from the
//! program, 2 = bad arguments.

use gat_hetero::RunResult;
use gat_sim::json::{number, Arr, Obj};
use gat_simbench::trace::{self, Layer, Profile};
use gat_simbench::workload::{
    record_limits, run_pass, setup_once, Pass, Sim, Workload, DEFAULT_SEED, RECORD_SCALE,
};
use std::process::ExitCode;

mod heap;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;
use std::time::{Duration, Instant};

/// Machine constructions per run for `setup_s`: the reported value is
/// the median of these repeats, each summed over the workload.
const SETUP_REPEATS: usize = 15;

/// Fewest passes an end-to-end run makes, whatever `--seconds` says.
const MIN_PASSES: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_u64(key: &str, v: &str) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| format!("{key}: not a non-negative integer: {v:?}"))
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 40;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(key) = it.next() {
        let val = it.next().ok_or_else(|| format!("{key}: missing value"))?;
        match key.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&val).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {val:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = parse_u64(&key, &val)?,
            "--seconds" => seconds = parse_u64(&key, &val)?,
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {val:?}")),
                }
            }
            _ => return Err(format!("unknown flag {key:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB. Reported, not
/// gated: it also counts file-backed pages, which the kernel may map as
/// huge pages at any moment (it moved 2.2 MiB between runs of one seed).
fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metrics in print order: (name, value, unit).
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let mut m = Obj::new();
    for &(name, value, unit) in metrics {
        m = m.raw(
            name,
            &Obj::new().f64("value", value).str("unit", unit).finish(),
        );
    }
    Obj::new()
        .bool("correct", correct)
        .u64("attempted", attempted as u64)
        .u64("failed", failed as u64)
        .raw("metrics", &m.finish())
        .finish()
}

/// Simulated outcomes: reported, never gated (a model fix may move them).
fn outcome_line(args: &Args, digest: u64, results: &[&RunResult], extra: Obj) -> String {
    let (ipc, fps) = outcome_means(results);
    let cycles: u64 = results.iter().map(|r| r.cycles).sum();
    extra
        .str("type", "simbench_outcome")
        .str("workload", args.workload.name())
        .u64("seed", args.seed)
        .str("result_digest", &format!("{digest:016x}"))
        .f64("cpu_ipc_sum_mean", ipc)
        .f64("gpu_fps_mean", fps)
        .u64("measured_cycles", cycles)
        .finish()
}

/// Mean over simulations of the summed core IPC, and of the GPU's FPS
/// (0 where the workload has no such side).
fn outcome_means(results: &[&RunResult]) -> (f64, f64) {
    let ipcs: Vec<f64> = results
        .iter()
        .filter(|r| !r.cores.is_empty())
        .map(|r| r.cores.iter().map(|c| c.ipc).sum())
        .collect();
    let fps: Vec<f64> = results
        .iter()
        .filter_map(|r| r.gpu.as_ref().map(|g| g.fps))
        .collect();
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    (mean(&ipcs), mean(&fps))
}

fn ok_results(pass: &Pass) -> Vec<&RunResult> {
    pass.outcomes
        .iter()
        .filter_map(|o| o.result.as_ref().ok())
        .collect()
}

/// End-to-end run: set up `SETUP_REPEATS` times, then repeat whole passes
/// over the workload while another pass fits in `seconds` (at least
/// `MIN_PASSES`), and report medians over the passes.
fn run_end_to_end(args: &Args, sims: &[Sim]) {
    let setups: Vec<f64> = (0..SETUP_REPEATS).map(|_| setup_once(sims)).collect();
    let budget = Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    let mut passes = Vec::new();
    loop {
        passes.push(run_pass(sims, true));
        let elapsed = t0.elapsed();
        let next_end = elapsed + elapsed / passes.len() as u32;
        if passes.len() >= MIN_PASSES && next_end > budget {
            break;
        }
    }
    let attempted = sims.len() * passes.len();
    let ok: usize = passes.iter().map(|p| p.ok_count(sims)).sum();
    let digest = passes[0].digest();
    let repeatable = passes.iter().all(|p| p.digest() == digest);
    let mut pass_walls = Arr::new();
    for p in &passes {
        pass_walls = pass_walls.f64(p.wall_s);
    }
    println!(
        "{}",
        outcome_line(
            args,
            digest,
            &ok_results(&passes[0]),
            Obj::new()
                .f64("vm_hwm_mb", vm_hwm_mb())
                .bool("digest_repeatable", repeatable)
                .raw("pass_wall_s", &pass_walls.finish())
        )
    );
    let metrics: Metrics = vec![
        (
            "wall_s",
            median(passes.iter().map(|p| p.wall_s).collect()),
            "s",
        ),
        (
            "sim_mcycles_per_s",
            median(
                passes
                    .iter()
                    .map(|p| p.cycles() as f64 / p.wall_s / 1e6)
                    .collect(),
            ),
            "Mcycles/s",
        ),
        ("setup_s", median(setups), "s"),
        ("peak_heap_mb", heap::peak_mb(), "MiB"),
        ("ok_frac", ratio(ok as f64, attempted as f64), "frac"),
    ];
    println!(
        "{}",
        result_line(
            ok == attempted && repeatable,
            attempted,
            attempted - ok,
            &metrics
        )
    );
}

/// Traced run: fast-forward pass, strict pass, traced pass; all three
/// must agree exactly.
fn run_traced(args: &Args, sims: &[Sim], generate_s: f64) -> Result<(), String> {
    let default = run_pass(sims, true);
    let strict = run_pass(sims, false);
    let (traced, profile) = trace::run_traced(sims);
    trace::check_fidelity(sims, &strict, &traced)?;
    let digests = [default.digest(), strict.digest(), traced.digest()];
    if digests.iter().any(|&d| d != digests[0]) {
        return Err(format!(
            "result_digest differs: fast-forward {:016x}, strict {:016x}, traced {:016x}",
            digests[0], digests[1], digests[2]
        ));
    }
    let attempted = 3 * sims.len();
    let ok = default.ok_count(sims) + strict.ok_count(sims) + traced.ok_count(sims);
    let results = ok_results(&default);
    let mut shares = Obj::new();
    let total: f64 = Layer::ALL.iter().map(|&l| profile.self_s(l)).sum();
    for l in Layer::ALL {
        shares = shares.raw(l.name(), &number(ratio(profile.self_s(l), total)));
    }
    println!(
        "{}",
        outcome_line(
            args,
            digests[0],
            &results,
            Obj::new()
                .f64("default_wall_s", default.wall_s)
                .f64("strict_wall_s", strict.wall_s)
                .f64("traced_wall_s", traced.wall_s)
                .u64("sample_stride", trace::SAMPLE_STRIDE)
                .f64("stamp_ns", profile.stamp_ns)
                .raw("self_share", &shares.finish())
        )
    );
    let metrics = layer_metrics(
        &profile,
        &results,
        &default,
        &strict,
        traced.wall_s,
        generate_s,
    );
    println!(
        "{}",
        result_line(ok == attempted, attempted, attempted - ok, &metrics)
    );
    Ok(())
}

fn layer_metrics(
    p: &Profile,
    results: &[&RunResult],
    default: &Pass,
    strict: &Pass,
    traced_wall_s: f64,
    generate_s: f64,
) -> Metrics {
    let c = &p.counts;
    let sum = |f: &dyn Fn(&RunResult) -> u64| results.iter().map(|r| f(r)).sum::<u64>() as f64;
    let cpu_hits = sum(&|r| r.llc.cpu_hits);
    let cpu_lookups = cpu_hits + sum(&|r| r.llc.cpu_misses);
    let gpu_hits = sum(&|r| r.llc.gpu_hits);
    let gpu_lookups = gpu_hits + sum(&|r| r.llc.gpu_misses);
    let dram_reads = sum(&|r| r.dram.reads);
    let dram_ops = dram_reads + sum(&|r| r.dram.writes);
    let weighted = |f: &dyn Fn(&RunResult) -> f64, w: &dyn Fn(&RunResult) -> u64, total: f64| {
        ratio(
            results.iter().map(|r| f(r) * w(r) as f64).sum::<f64>(),
            total,
        )
    };
    let requests = (c.req_accepted[0] + c.req_accepted[1]) as f64;
    let ns = |l: Layer, per: f64| ratio(p.self_s(l) * 1e9, per);
    vec![
        ("cpu.self_s", p.self_s(Layer::Cpu), "s"),
        ("cpu.ns_per_tick", ns(Layer::Cpu, c.cpu_ticks as f64), "ns"),
        ("cpu.ticks", c.cpu_ticks as f64, "count"),
        (
            "cpu.useful_tick_frac",
            ratio(c.cpu_useful_ticks as f64, c.cpu_ticks as f64),
            "frac",
        ),
        ("cpu.retired", c.cpu_retired as f64, "count"),
        (
            "cpu.req_accept_frac",
            ratio(c.req_accepted[0] as f64, c.req_attempts[0] as f64),
            "frac",
        ),
        ("gpu.self_s", p.self_s(Layer::Gpu), "s"),
        ("gpu.ns_per_tick", ns(Layer::Gpu, c.gpu_ticks as f64), "ns"),
        ("gpu.ticks", c.gpu_ticks as f64, "count"),
        (
            "gpu.gated_tick_frac",
            ratio(c.gpu_gated_ticks as f64, c.gpu_ticks as f64),
            "frac",
        ),
        ("gpu.llc_sends", c.gpu_llc_sends as f64, "count"),
        (
            "gpu.req_accept_frac",
            ratio(c.req_accepted[1] as f64, c.req_attempts[1] as f64),
            "frac",
        ),
        ("gpu.frames", c.gpu_frames as f64, "count"),
        ("qos.self_s", p.self_s(Layer::Qos), "s"),
        ("atu.evaluations", p.qos.atu_evaluations as f64, "count"),
        ("atu.closed_cycles", p.qos.atu_closed_cycles as f64, "count"),
        (
            "frpu.predicted_frames",
            p.qos.frpu_predicted_frames as f64,
            "count",
        ),
        (
            "frpu.relearn_events",
            p.qos.frpu_relearn_events as f64,
            "count",
        ),
        ("dram.prio_flips", c.prio_flips as f64, "count"),
        ("uncore.self_s", p.self_s(Layer::Uncore), "s"),
        ("uncore.ns_per_request", ns(Layer::Uncore, requests), "ns"),
        ("uncore.requests", requests, "count"),
        ("uncore.back_invals", c.back_invals as f64, "count"),
        (
            "uncore.llc_retry_cycles",
            p.llc_retry_cycles as f64,
            "count",
        ),
        ("llc.lookups", cpu_lookups + gpu_lookups, "count"),
        ("llc.cpu_hit_frac", ratio(cpu_hits, cpu_lookups), "frac"),
        ("llc.gpu_hit_frac", ratio(gpu_hits, gpu_lookups), "frac"),
        ("dram.reads", dram_reads, "count"),
        ("dram.writes", dram_ops - dram_reads, "count"),
        (
            "dram.row_hit_frac",
            weighted(
                &|r| r.dram.row_hit_rate,
                &|r| r.dram.reads + r.dram.writes,
                dram_ops,
            ),
            "frac",
        ),
        (
            "dram.read_latency_mean",
            weighted(&|r| r.dram.read_latency_mean, &|r| r.dram.reads, dram_reads),
            "dram_cycles",
        ),
        ("system.self_s", p.self_s(Layer::System), "s"),
        (
            "system.self_ns_per_cycle",
            ns(Layer::System, c.cycles as f64),
            "ns",
        ),
        ("system.sim_cycles", c.cycles as f64, "count"),
        (
            "system.ff_skip_frac",
            ratio(default.ff_skipped() as f64, default.cycles() as f64),
            "frac",
        ),
        ("system.ff_gain", ratio(strict.wall_s, default.wall_s), "x"),
        ("setup.self_s", p.setup_s + generate_s, "s"),
        ("trace.overhead", ratio(traced_wall_s, strict.wall_s), "x"),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            eprintln!(
                "usage: simbench --workload proposal_m|gpu_solo|cpu_mix [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let t0 = Instant::now();
    let sims = args.workload.sims(RECORD_SCALE, record_limits(), args.seed);
    let generate_s = t0.elapsed().as_secs_f64();
    if !args.trace {
        run_end_to_end(&args, &sims);
        return ExitCode::SUCCESS;
    }
    match run_traced(&args, &sims, generate_s) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::from(1)
        }
    }
}
