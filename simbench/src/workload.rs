//! The benchmark's workloads, their output checks and the untraced runs.
//!
//! Every workload is a fixed list of independent simulations at the
//! configuration of record (EXPERIMENTS.md: scale 128, 200 K instructions
//! per core, 4 frames, 200 K warm-up cycles). The seed arrives only as an
//! argument and reaches only [`MachineConfig::seed`].

use gat_hetero::experiments::{amenable_mixes, par_run, Proposal};
use gat_hetero::{HeteroSystem, MachineConfig, QosMode, RunLimits, RunResult, SimError};
use gat_sim::hashing::stable_hash64;
use gat_workloads::{all_games, mixes_m, GameProfile, SpecProfile};
use std::time::Instant;

/// Seed used when `--seed` is not given (the repository's experiment seed).
pub const DEFAULT_SEED: u64 = 0x2017_0529;

/// Seed held out from tuning: a later change verifies its claim on this
/// seed after developing against others.
pub const HELD_OUT_SEED: u64 = 0x5eed_0b0e;

/// The three traffic shapes the benchmark drives through the uncore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The six amenable M-mixes under `ThrotCpuPrio`: FRPU, ATU and the
    /// CPU-priority DRAM scheduler all active (every layer busy).
    ProposalM,
    /// All fourteen Table II games alone under `QosMode::Observe`: GPU
    /// pipeline and streaming GPU reads, no CPU core built.
    GpuSolo,
    /// The CPU halves of M1–M6 under FR-FCFS: cores, private caches and
    /// low-locality CPU reads, no GPU or QoS built.
    CpuMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ProposalM, Workload::GpuSolo, Workload::CpuMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ProposalM => "proposal_m",
            Workload::GpuSolo => "gpu_solo",
            Workload::CpuMix => "cpu_mix",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's simulations at `scale`/`limits` for `seed`.
    pub fn sims(self, scale: u32, limits: RunLimits, seed: u64) -> Vec<Sim> {
        let machine = || {
            let mut m = MachineConfig::table_one(scale, seed);
            m.limits = limits;
            m
        };
        match self {
            Workload::ProposalM => amenable_mixes()
                .into_iter()
                .map(|mix| {
                    let mut cfg = machine();
                    Proposal::ThrotCpuPrio.apply(&mut cfg);
                    Sim {
                        label: format!("{}:{}", mix.game.name, mix.cpu_label()),
                        cfg,
                        apps: mix.cpu,
                        game: Some(mix.game),
                    }
                })
                .collect(),
            Workload::GpuSolo => all_games()
                .into_iter()
                .map(|g| {
                    let mut cfg = machine();
                    cfg.qos = QosMode::Observe;
                    Sim {
                        label: g.name.to_string(),
                        cfg,
                        apps: Vec::new(),
                        game: Some(g),
                    }
                })
                .collect(),
            Workload::CpuMix => mixes_m()
                .into_iter()
                .take(6)
                .map(|mix| Sim {
                    label: mix.cpu_label(),
                    cfg: machine(),
                    apps: mix.cpu,
                    game: None,
                })
                .collect(),
        }
    }
}

/// Run limits of the configuration of record.
pub fn record_limits() -> RunLimits {
    RunLimits {
        cpu_instructions: 200_000,
        gpu_frames: 4,
        warmup_cycles: 200_000,
        ..RunLimits::default()
    }
}

/// Scale of the configuration of record.
pub const RECORD_SCALE: u32 = 128;

/// One simulation of a workload.
#[derive(Debug, Clone)]
pub struct Sim {
    pub label: String,
    pub cfg: MachineConfig,
    pub apps: Vec<SpecProfile>,
    pub game: Option<GameProfile>,
}

impl Sim {
    /// Build the machine through the public constructor.
    pub fn build(&self, fast_forward: bool) -> HeteroSystem {
        let mut cfg = self.cfg.clone();
        cfg.fast_forward = fast_forward;
        HeteroSystem::new(cfg, &self.apps, self.game.clone())
    }

    /// Did the run reach every goal: each core its instruction budget and
    /// the GPU its frame count?
    pub fn goals_met(&self, r: &RunResult) -> bool {
        let limits = &self.cfg.limits;
        r.cores.len() == self.apps.len()
            && r.cores.iter().all(|c| c.retired >= limits.cpu_instructions)
            && match (&self.game, &r.gpu) {
                (None, None) => true,
                (Some(_), Some(g)) => g.frames >= u64::from(limits.gpu_frames),
                _ => false,
            }
    }
}

/// What one simulation produced.
#[derive(Debug)]
pub struct SimOutcome {
    pub result: Result<RunResult, SimError>,
    /// CPU cycles simulated, warm-up included.
    pub cycles: u64,
    /// Cycles the fast-forward engine skipped (0 on the strict path).
    pub ff_skipped: u64,
}

impl SimOutcome {
    /// The run completed and met every goal of `sim`.
    pub fn ok(&self, sim: &Sim) -> bool {
        self.result.as_ref().is_ok_and(|r| sim.goals_met(r))
    }

    /// The result's canonical JSON line (or the error's text).
    pub fn json(&self) -> String {
        match &self.result {
            Ok(r) => r.to_json(),
            Err(e) => format!("error: {e}"),
        }
    }
}

/// One pass over a workload's simulations.
#[derive(Debug)]
pub struct Pass {
    pub outcomes: Vec<SimOutcome>,
    /// Host seconds for the whole pass (machine construction included).
    pub wall_s: f64,
}

impl Pass {
    pub fn cycles(&self) -> u64 {
        self.outcomes.iter().map(|o| o.cycles).sum()
    }

    pub fn ff_skipped(&self) -> u64 {
        self.outcomes.iter().map(|o| o.ff_skipped).sum()
    }

    pub fn ok_count(&self, sims: &[Sim]) -> usize {
        sims.iter()
            .zip(&self.outcomes)
            .filter(|(s, o)| o.ok(s))
            .count()
    }

    pub fn digest(&self) -> u64 {
        result_digest(self.outcomes.iter().map(SimOutcome::json))
    }
}

/// Digest over every simulation's `RunResult::to_json`, in workload order.
pub fn result_digest(lines: impl IntoIterator<Item = String>) -> u64 {
    let mut all = String::new();
    for l in lines {
        all.push_str(&l);
        all.push('\n');
    }
    stable_hash64(all.as_bytes())
}

/// Run every simulation once, on one thread, through `HeteroSystem::try_run`.
///
/// # Panics
/// Panics if the requested fast-forward mode is overridden from the
/// environment (`GAT_NO_FASTFORWARD`): the benchmark would then time a
/// different loop than it reports.
pub fn run_pass(sims: &[Sim], fast_forward: bool) -> Pass {
    let t0 = Instant::now();
    let outcomes = par_run(sims.iter().collect(), 1, |sim: &Sim| {
        let mut sys = sim.build(fast_forward);
        assert_eq!(
            sys.fast_forward_enabled(),
            fast_forward,
            "fast-forward overridden by the environment"
        );
        let result = sys.try_run();
        let (cycles, ff_skipped, _) = sys.ff_run_stats();
        SimOutcome {
            result,
            cycles,
            ff_skipped,
        }
    });
    Pass {
        outcomes,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// Host seconds to construct every machine of the workload once (each is
/// dropped before the next is built; dropping is not timed).
pub fn setup_once(sims: &[Sim]) -> f64 {
    let mut total = 0.0;
    for sim in sims {
        let t0 = Instant::now();
        let sys = sim.build(true);
        total += t0.elapsed().as_secs_f64();
        drop(std::hint::black_box(sys));
    }
    total
}
