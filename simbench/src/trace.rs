//! The traced run: the machine driven from outside through its layers'
//! public entry points, in `HeteroSystem::tick`'s phase order, on the
//! strict cycle-by-cycle path (no fast-forward, no fault plan).
//!
//! Each call into a layer opens a span for that layer and closes the
//! caller's, so a layer's self time is the time its own spans cover.
//! `Uncore::try_request` is timed through [`TracedPort`], which wraps the
//! `MemPort` handed to the CPU cores and the GPU: its time is the
//! uncore's, not the caller's. Times are sampled on one cycle in
//! [`SAMPLE_STRIDE`]: the sampled spans, less the measured cost of their
//! timestamps, split the loop's wall time between the layers. Counts are
//! exact. Spans are summed in memory per layer and written out when the
//! run ends.
//!
//! The loop copies `HeteroSystem`'s construction, warm-up, tick and result
//! collection. [`check_fidelity`] compares every traced result with the
//! untraced strict run, so the copy cannot drift from the program
//! silently. Not copied: the watchdog (a fault-free run never trips it),
//! the run-event stream and the epoch sampler, none of which feed
//! `RunResult`.

use crate::workload::{Pass, Sim, SimOutcome};
use gat_cache::{BlockReq, MemPort, Source};
use gat_core::{QosController, QosControllerConfig, QosEvent};
use gat_cpu::{Core, CpuHierarchy, StreamGen};
use gat_dram::{SchedCtx, SchedulerKind};
use gat_gpu::{GpuEvent, GpuPipeline, WorkloadGen};
use gat_hetero::uncore::{BackInval, Uncore, UncoreCompletion};
use gat_hetero::{
    CoreResult, DramResult, GpuResult, LlcResult, MachineConfig, QosMode, RunResult, SimError,
};
use gat_sim::rng::SimRng;
use gat_sim::{Cycle, DRAM_CLOCK_DIVIDER, GPU_CLOCK_DIVIDER};
use std::time::Instant;

/// Time one CPU cycle in this many. Prime, so the sampled cycles fall
/// evenly on every phase of the GPU and DRAM clock dividers.
pub const SAMPLE_STRIDE: u64 = 31;

/// The simulator layers a span can belong to, named after their modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The `gat-hetero` tick loop itself: phase sequencing, QoS signal
    /// plumbing, frame accounting.
    System,
    /// `gat-cpu` `Core`.
    Cpu,
    /// `gat-gpu` `GpuPipeline`.
    Gpu,
    /// `gat-core` `QosController` (FRPU and ATU).
    Qos,
    /// `gat-hetero` `Uncore` over ring, LLC/MSHR and DRAM.
    Uncore,
}

impl Layer {
    pub const ALL: [Layer; 5] = [
        Layer::System,
        Layer::Cpu,
        Layer::Gpu,
        Layer::Qos,
        Layer::Uncore,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::System => "system",
            Layer::Cpu => "cpu",
            Layer::Gpu => "gpu",
            Layer::Qos => "qos",
            Layer::Uncore => "uncore",
        }
    }
}

/// Span clock: one timestamp per layer switch on sampled cycles, none on
/// the others.
struct Clock {
    sampling: bool,
    layer: Layer,
    last: Instant,
    self_ns: [u64; 5],
    /// Spans closed per layer on sampled cycles: each carries the cost of
    /// one timestamp, which [`stamp_cost_ns`] removes afterwards.
    spans: [u64; 5],
}

impl Clock {
    fn new() -> Self {
        Self {
            sampling: false,
            layer: Layer::System,
            last: Instant::now(),
            self_ns: [0; 5],
            spans: [0; 5],
        }
    }

    /// Close the current layer's span, open `layer`'s; returns the layer
    /// that was running so a nested call can hand time back to it.
    #[inline]
    fn enter(&mut self, layer: Layer) -> Layer {
        let prev = self.layer;
        if self.sampling {
            let t = Instant::now();
            self.self_ns[prev as usize] += (t - self.last).as_nanos() as u64;
            self.spans[prev as usize] += 1;
            self.last = t;
        }
        self.layer = layer;
        prev
    }

    fn begin_cycle(&mut self, sample: bool) {
        self.sampling = sample;
        self.layer = Layer::System;
        if sample {
            self.last = Instant::now();
        }
    }

    fn end_cycle(&mut self) {
        self.enter(Layer::System);
        self.sampling = false;
    }
}

/// Host nanoseconds one `Instant::now()` adds to the span it closes: the
/// median over batches of back-to-back calls.
fn stamp_cost_ns() -> f64 {
    let mut per_call: Vec<f64> = (0..21)
        .map(|_| {
            let t0 = Instant::now();
            let mut last = t0;
            for _ in 0..1000 {
                last = std::hint::black_box(Instant::now());
            }
            (last - t0).as_nanos() as f64 / 1000.0
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[per_call.len() / 2]
}

/// Exact work counts of a traced pass (warm-up included).
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub cycles: u64,
    pub sampled_cycles: u64,
    pub cpu_ticks: u64,
    pub cpu_useful_ticks: u64,
    /// Instructions retired by all cores.
    pub cpu_retired: u64,
    pub gpu_ticks: u64,
    pub gpu_gated_ticks: u64,
    pub gpu_llc_sends: u64,
    pub gpu_frames: u64,
    /// `Uncore::try_request` calls and acceptances, `[cpu, gpu]`.
    pub req_attempts: [u64; 2],
    pub req_accepted: [u64; 2],
    pub back_invals: u64,
    pub prio_flips: u64,
}

/// QoS-controller counters read at the end of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct QosCounts {
    pub atu_evaluations: u64,
    pub atu_closed_cycles: u64,
    pub frpu_predicted_frames: u64,
    pub frpu_relearn_events: u64,
}

/// Per-layer profile of a traced workload pass.
#[derive(Debug, Default, Clone)]
pub struct Profile {
    pub counts: Counts,
    pub qos: QosCounts,
    /// Estimated self seconds per layer, indexed by `Layer as usize`:
    /// each simulation's loop time split by its sampled span shares.
    pub self_s: [f64; 5],
    /// Host seconds constructing the traced machines.
    pub setup_s: f64,
    /// `UncoreStats::llc_retry_cycles` over the measured windows.
    pub llc_retry_cycles: u64,
    /// Measured cost of one timestamp, removed from every sampled span.
    pub stamp_ns: f64,
}

impl Profile {
    pub fn self_s(&self, l: Layer) -> f64 {
        self.self_s[l as usize]
    }
}

/// The `MemPort` handed to the cores and the GPU: forwards to the uncore,
/// attributing the call's time to the uncore and counting acceptances.
struct TracedPort<'a> {
    uncore: &'a mut Uncore,
    source: Source,
    clock: &'a mut Clock,
    counts: &'a mut Counts,
}

impl MemPort for TracedPort<'_> {
    fn try_request(&mut self, now: Cycle, req: BlockReq) -> bool {
        let caller = self.clock.enter(Layer::Uncore);
        let ok = self.uncore.try_request(now, self.source, req);
        self.clock.enter(caller);
        let k = usize::from(self.source == Source::Gpu);
        self.counts.req_attempts[k] += 1;
        self.counts.req_accepted[k] += u64::from(ok);
        ok
    }
}

/// The machine, assembled from its layers as `HeteroSystem::new` does.
struct Machine {
    cfg: MachineConfig,
    apps: Vec<gat_cpu::SpecProfile>,
    cores: Vec<Core>,
    gpu: Option<GpuPipeline>,
    game_name: &'static str,
    qos: Option<QosController>,
    qos_sub: Option<gat_sim::events::SubscriberId>,
    uncore: Uncore,
    now: Cycle,
    mark_cycle: Cycle,
    last_sched_boost: bool,
    label: String,
    comp_buf: Vec<UncoreCompletion>,
    inval_buf: Vec<BackInval>,
    event_buf: Vec<GpuEvent>,
    qos_event_buf: Vec<QosEvent>,
    clock: Clock,
    counts: Counts,
}

impl Machine {
    fn new(sim: &Sim) -> Self {
        let cfg = sim.cfg.clone();
        assert!(
            cfg.faults.is_none(),
            "the traced loop models fault-free runs only"
        );
        let root = SimRng::new(cfg.seed);
        let cores = sim
            .apps
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let base = i as u64 * cfg.cpu_region_bytes;
                let stream = StreamGen::new(*p, base, root.fork(&format!("cpu{i}")));
                Core::new(
                    cfg.core.clone(),
                    stream,
                    CpuHierarchy::new(i as u8, cfg.hierarchy.clone()),
                )
            })
            .collect();
        let game_name = sim.game.as_ref().map(|g| g.name).unwrap_or("");
        let gpu = sim.game.clone().map(|g| {
            let wl = WorkloadGen::new(g, root.fork("gpu-workload"));
            let mut pl = GpuPipeline::new(cfg.gpu.clone(), wl, root.fork("gpu-pipeline"));
            pl.set_frame_budget(cfg.limits.gpu_frames + 1_000_000);
            pl
        });
        let needs_observer = cfg.sched == SchedulerKind::DynPrio;
        let qcfg = match (gpu.is_some(), cfg.qos, needs_observer) {
            (false, _, _) | (true, QosMode::Off, false) => None,
            (true, QosMode::Off, true) | (true, QosMode::Observe, _) => {
                Some(QosControllerConfig::observe_only(cfg.scale))
            }
            (true, QosMode::Throttle, _) => Some(QosControllerConfig::throttle_only(cfg.scale)),
            (true, QosMode::ThrotCpuPrio, _) => Some(QosControllerConfig::proposal(cfg.scale)),
            (true, QosMode::CpuPrioOnly, _) => Some(QosControllerConfig::prio_only(cfg.scale)),
        };
        let mut qos = qcfg.map(|mut q| {
            q.strict_release = cfg.strict_release;
            q.target_fps = cfg.target_fps;
            QosController::new(q)
        });
        let qos_sub = qos.as_mut().map(|q| q.subscribe_events());
        let uncore = Uncore::new(&cfg);
        let label = format!("{}+{:?}+{:?}", cfg.sched.label(), cfg.fill_policy, cfg.qos);
        Self {
            apps: sim.apps.clone(),
            cores,
            gpu,
            game_name,
            qos,
            qos_sub,
            uncore,
            now: 0,
            mark_cycle: 0,
            last_sched_boost: false,
            label,
            comp_buf: Vec::new(),
            inval_buf: Vec::new(),
            event_buf: Vec::new(),
            qos_event_buf: Vec::new(),
            clock: Clock::new(),
            counts: Counts::default(),
            cfg,
        }
    }

    /// One CPU cycle, phase for phase as `HeteroSystem::tick`.
    fn tick(&mut self) {
        let now = self.now;
        let sample = now.is_multiple_of(SAMPLE_STRIDE);
        self.counts.cycles += 1;
        self.counts.sampled_cycles += u64::from(sample);
        self.clock.begin_cycle(sample);
        let mut port = TracedPort {
            uncore: &mut self.uncore,
            source: Source::Cpu(0),
            clock: &mut self.clock,
            counts: &mut self.counts,
        };

        // 1. Deliver finished reads.
        let mut comp = std::mem::take(&mut self.comp_buf);
        port.clock.enter(Layer::Uncore);
        port.uncore.drain_completions(&mut comp);
        for c in &comp {
            match c.source {
                Source::Cpu(i) => {
                    port.clock.enter(Layer::Cpu);
                    port.source = c.source;
                    self.cores[i as usize].on_mem_response(now, c.token, &mut port);
                }
                Source::Gpu => {
                    if let Some(gpu) = self.gpu.as_mut() {
                        port.clock.enter(Layer::Gpu);
                        gpu.on_mem_response(now / GPU_CLOCK_DIVIDER, c.token);
                    }
                }
            }
        }
        comp.clear();
        self.comp_buf = comp;

        // 2. Back-invalidations from the inclusive LLC.
        let mut invals = std::mem::take(&mut self.inval_buf);
        port.clock.enter(Layer::Uncore);
        port.uncore.drain_back_invals(&mut invals);
        port.counts.back_invals += invals.len() as u64;
        for b in &invals {
            if let Some(core) = self.cores.get_mut(b.core as usize) {
                port.clock.enter(Layer::Cpu);
                core.back_invalidate(b.addr);
            }
        }
        invals.clear();
        self.inval_buf = invals;

        // 3. CPU cores.
        for core in &mut self.cores {
            port.clock.enter(Layer::Cpu);
            port.source = Source::Cpu(core.core_id());
            let worked = core.tick(now, &mut port);
            port.counts.cpu_ticks += 1;
            port.counts.cpu_useful_ticks += u64::from(worked);
        }

        // 4. GPU on its clock divider, gated by the QoS controller.
        let mut gpu_now = 0;
        if let Some(gpu) = self.gpu.as_mut() {
            gpu_now = now / GPU_CLOCK_DIVIDER;
            if now.is_multiple_of(GPU_CLOCK_DIVIDER) {
                let quota = match self.qos.as_ref() {
                    Some(q) => {
                        port.clock.enter(Layer::Qos);
                        q.quota(gpu_now)
                    }
                    None => u32::MAX,
                };
                port.clock.enter(Layer::Gpu);
                port.source = Source::Gpu;
                let sends = gpu.tick(gpu_now, quota, &mut port);
                gpu.drain_events(&mut self.event_buf);
                port.counts.gpu_ticks += 1;
                port.counts.gpu_gated_ticks += u64::from(quota == 0);
                port.counts.gpu_llc_sends += u64::from(sends);
                if let Some(q) = self.qos.as_mut() {
                    port.clock.enter(Layer::Qos);
                    q.note_sends(gpu_now, sends);
                    q.on_gpu_events(gpu_now, &self.event_buf);
                    if let Some(sub) = self.qos_sub {
                        q.poll_events_into(sub, &mut self.qos_event_buf);
                        self.qos_event_buf.clear();
                    }
                }
                port.clock.enter(Layer::System);
                port.counts.gpu_frames += self
                    .event_buf
                    .iter()
                    .filter(|e| matches!(e, GpuEvent::FrameComplete { .. }))
                    .count() as u64;
                self.event_buf.clear();
                port.clock.enter(Layer::Gpu);
                port.uncore.gpu_tolerance = gpu.latency_tolerance();
            }
        }

        // 5. Uncore with the QoS signals.
        let ctx = match self.qos.as_ref() {
            Some(q) => {
                port.clock.enter(Layer::Qos);
                let s = q.signals(gpu_now);
                SchedCtx {
                    cpu_prio_boost: s.cpu_prio_boost,
                    gpu_urgent: s.gpu_urgent,
                    gpu_ahead: s.gpu_above_target,
                }
            }
            None => SchedCtx::default(),
        };
        port.clock.enter(Layer::System);
        if ctx.cpu_prio_boost != self.last_sched_boost {
            self.last_sched_boost = ctx.cpu_prio_boost;
            port.counts.prio_flips += 1;
        }
        port.clock.enter(Layer::Uncore);
        port.uncore.tick(now, ctx);
        self.clock.end_cycle();
        self.now += 1;
    }

    fn goals_met(&self) -> bool {
        let budget = self.cfg.limits.cpu_instructions;
        self.cores.iter().all(|c| c.retired_since_mark() >= budget)
            && self
                .gpu
                .as_ref()
                .is_none_or(|g| g.stats.frames.get() >= u64::from(self.cfg.limits.gpu_frames))
    }

    /// `HeteroSystem::try_run` on the strict path.
    fn run(&mut self) -> Result<RunResult, SimError> {
        let end = self.cfg.limits.warmup_cycles;
        while self.now < end {
            self.tick();
        }
        for core in &mut self.cores {
            core.mark();
            core.set_measure_budget(self.cfg.limits.cpu_instructions);
        }
        if let Some(gpu) = self.gpu.as_mut() {
            gpu.reset_stats();
        }
        self.uncore.reset_stats();
        self.mark_cycle = self.now;
        while !self.goals_met() {
            self.tick();
            if self.now >= self.cfg.limits.max_cycles {
                return Err(SimError::MaxCycles {
                    cycle: self.now,
                    limit: self.cfg.limits.max_cycles,
                });
            }
        }
        Ok(self.collect())
    }

    /// `HeteroSystem::collect`.
    fn collect(&self) -> RunResult {
        let cores = self
            .cores
            .iter()
            .zip(&self.apps)
            .map(|(c, p)| CoreResult {
                core: c.core_id(),
                spec_id: p.spec_id,
                name: p.name,
                ipc: c.ipc_since_mark(),
                retired: c.retired_since_mark(),
                prefetches: c.hierarchy.prefetches.get(),
                loads: c.hierarchy.loads.get(),
            })
            .collect();
        let gpu = self.gpu.as_ref().map(|g| {
            let (err_mean, err_min, err_max, predicted, relearn) = match self.qos.as_ref() {
                Some(q) => (
                    q.frpu.error_percent.mean(),
                    q.frpu.error_percent.min(),
                    q.frpu.error_percent.max(),
                    q.frpu.predicted_frames,
                    q.frpu.relearn_events,
                ),
                None => (0.0, 0.0, 0.0, 0, 0),
            };
            GpuResult {
                game: self.game_name,
                fps: g.fps(),
                fps_min: g.fps_of_cycles(g.stats.frame_cycles.max()),
                frames: g.stats.frames.get(),
                llc_reads: g.stats.llc_reads_sent.get(),
                llc_writes: g.stats.llc_writes_sent.get(),
                est_error_mean: err_mean,
                est_error_min: err_min,
                est_error_max: err_max,
                predicted_frames: predicted,
                relearn_events: relearn,
                throttle_w_g: self.qos.as_ref().map(|q| q.atu.decision().w_g).unwrap_or(0),
                gated_cycles: g.stats.gated_cycles.get(),
                unit_stats: g.unit_stats(),
            }
        });
        let ls = &self.uncore.llc.stats;
        let llc = LlcResult {
            cpu_hits: ls.cpu_hits.get(),
            cpu_misses: ls.cpu_misses.get(),
            gpu_hits: ls.gpu_hits.get(),
            gpu_misses: ls.gpu_misses.get(),
            back_invalidations: self.uncore.stats.back_invalidations.get(),
            gpu_fills_bypassed: self.uncore.stats.gpu_fills_bypassed.get(),
        };
        let mut dram = DramResult::default();
        let mut hit_weight = 0.0;
        let mut lat_sum = 0.0;
        let mut lat_n = 0u64;
        for ch in &self.uncore.channels {
            dram.cpu_read_bytes += ch.stats.cpu_read_bytes.get();
            dram.cpu_write_bytes += ch.stats.cpu_write_bytes.get();
            dram.gpu_read_bytes += ch.stats.gpu_read_bytes.get();
            dram.gpu_write_bytes += ch.stats.gpu_write_bytes.get();
            dram.reads += ch.stats.reads.get();
            dram.writes += ch.stats.writes.get();
            hit_weight += ch.stats.row_hit_rate();
            lat_sum += ch.stats.read_latency.mean() * ch.stats.read_latency.count() as f64;
            lat_n += ch.stats.read_latency.count();
        }
        dram.row_hit_rate = hit_weight / self.uncore.channels.len() as f64;
        dram.read_latency_mean = if lat_n == 0 {
            0.0
        } else {
            lat_sum / lat_n as f64
        };
        dram.energy_pj = self
            .uncore
            .channels
            .iter()
            .map(|ch| ch.energy.total_pj())
            .sum();
        let dram_cycles = (self.now - self.mark_cycle) / DRAM_CLOCK_DIVIDER;
        dram.power_mw = self
            .uncore
            .channels
            .iter()
            .map(|ch| ch.energy.average_power_mw(dram_cycles))
            .sum();
        RunResult {
            cores,
            gpu,
            llc,
            dram,
            cycles: self.now - self.mark_cycle,
            label: self.label.clone(),
        }
    }
}

/// Run every simulation once through the traced loop. The pass's
/// outcomes are those of the traced loop (no fast-forward, so
/// `ff_skipped` is 0); the profile holds the per-layer numbers.
pub fn run_traced(sims: &[Sim]) -> (Pass, Profile) {
    let stamp_ns = stamp_cost_ns();
    let t0 = Instant::now();
    let mut profile = Profile {
        stamp_ns,
        ..Profile::default()
    };
    let mut outcomes = Vec::with_capacity(sims.len());
    for sim in sims {
        let ts = Instant::now();
        let mut m = Machine::new(sim);
        m.counts = std::mem::take(&mut profile.counts);
        profile.setup_s += ts.elapsed().as_secs_f64();
        let tr = Instant::now();
        let result = m.run();
        let run_s = tr.elapsed().as_secs_f64();
        m.counts.cpu_retired += m.cores.iter().map(|c| c.retired.get()).sum::<u64>();
        profile.counts = std::mem::take(&mut m.counts);
        // The sampled spans give each layer's share of the loop; the
        // loop's own wall time gives the total, so timestamp overhead
        // that the correction misses cannot inflate the sum.
        let mut sampled = [0f64; 5];
        for ((s, &ns), &spans) in sampled.iter_mut().zip(&m.clock.self_ns).zip(&m.clock.spans) {
            *s = (ns as f64 - spans as f64 * stamp_ns).max(0.0);
        }
        let total: f64 = sampled.iter().sum();
        for (acc, s) in profile.self_s.iter_mut().zip(sampled) {
            *acc += if total > 0.0 { s / total * run_s } else { 0.0 };
        }
        if let Some(q) = m.qos.as_ref() {
            profile.qos.atu_evaluations += q.atu.evaluations;
            profile.qos.atu_closed_cycles += q.atu.closed_cycles;
            profile.qos.frpu_predicted_frames += q.frpu.predicted_frames;
            profile.qos.frpu_relearn_events += q.frpu.relearn_events;
        }
        profile.llc_retry_cycles += m.uncore.stats.llc_retry_cycles.get();
        outcomes.push(SimOutcome {
            result,
            cycles: m.now,
            ff_skipped: 0,
        });
    }
    let pass = Pass {
        outcomes,
        wall_s: t0.elapsed().as_secs_f64(),
    };
    (pass, profile)
}

/// The traced loop must reproduce the untraced strict run exactly: total
/// cycles and every `RunResult` field (per-core retired instructions,
/// frames, LLC and DRAM statistics).
pub fn check_fidelity(sims: &[Sim], strict: &Pass, traced: &Pass) -> Result<(), String> {
    for ((sim, s), t) in sims.iter().zip(&strict.outcomes).zip(&traced.outcomes) {
        if s.cycles != t.cycles || s.json() != t.json() {
            return Err(format!(
                "traced loop diverged from HeteroSystem on {}:\n  untraced ({} cycles): {}\n  traced   ({} cycles): {}",
                sim.label,
                s.cycles,
                s.json(),
                t.cycles,
                t.json()
            ));
        }
    }
    if strict.outcomes.len() != traced.outcomes.len() {
        return Err("traced and untraced passes ran different simulation counts".into());
    }
    Ok(())
}
