//! The traced run: per-layer metrics from spans around the calls the
//! benchmark makes into each crate.
//!
//! It has four parts.
//!
//! 1. **Replay.** One pass of the workload, serial, made of the public
//!    calls the engine makes for each job. For a `grid_warm` cell that
//!    is `JobSpec::key` and `ResultCache::probe`, which reads, checks
//!    and decodes the cached result (every cell is a hit). For a fleet
//!    device it is `PopulationConfig::spec_for`, `JobSpec::execute`,
//!    `fleet::fold_result`, and per chunk of devices `FleetAccum::merge`
//!    and `FleetSummary::merge`. Untraced and traced replays alternate
//!    for `--seconds`; their `jobs_per_s` give the tracing overhead,
//!    and the traced ones give each layer's self time. Afterwards every
//!    replayed spec runs once more through `Kernel::run` at its own
//!    fidelity, and `kernel-sim.ticks` and `kernel-sim.clock_switches`
//!    are summed from those reports.
//! 2. **Engine passes.** The workload's own entry point (as in the
//!    untraced run) at 1 and 2 workers, alternating, for
//!    `engine.parallel_efficiency`, `engine.overhead_share` and the
//!    engine's batch counters.
//! 3. **Layer suite.** Fixed loops on a sample of the workload's specs
//!    for the calls a replay does not make: the kernel at Full, Summary
//!    and reference, `WorkloadSpec::spawn_into`, the predictors,
//!    `PowerModel::core_power`, `Battery::drain`, every engine call, the
//!    fleet calls (on a small population when the workload is a grid),
//!    and `Sweep::csv`.
//! 4. **Metrics.** Each per-op figure is total span time over total
//!    operations, taken from the replay when it made that call and from
//!    the suite otherwise.

use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use engine::{CacheProbe, FaultInjector, JobResult, JobSpec, Journal, ResultCache};
use experiments::sweep::{self, Sweep, SweepConfig};
use fleet::{FleetAccum, PopulationConfig};
use itsy_hw::battery::BatteryParams;
use itsy_hw::{Battery, ClockTable, CpuMode, V_HIGH, V_LOW};
use kernel_sim::{Kernel, KernelConfig, KernelReport, Machine};
use policies::{AvgN, Past, Predictor};
use sim_core::{FleetSummary, Power, SimFidelity};

use crate::trace::{to_json_lines, Agg, Tracer};
use crate::{median, Bench, Metric, Outcome, Workload, JOBS};

/// Specs the layer suite runs through the kernel and engine calls.
const SUITE_SPECS: usize = 24;
/// Kernel rounds per suite spec; Full, Summary and reference alternate
/// within a round so host drift lands on all three alike.
const KERNEL_ROUNDS: usize = 3;
/// Devices in the population the suite uses when the workload is a grid.
const SUITE_DEVICES: u64 = 2_000;
/// Devices folded before the replay merges them into the running total,
/// as an engine worker's accumulator would be.
const FOLD_CHUNK: u64 = 1_000;
/// Engine passes per worker count.
const ENGINE_PASSES: usize = 2;
/// `Sweep::csv` renders timed.
const CSV_RENDERS: usize = 20;
/// Calls per `PowerModel::core_power` span.
const CORE_POWER_REPS: usize = 200;
/// Simulated seconds per cell of the sweep rendered when the workload
/// is the fleet (the CSV's size does not depend on it).
const SUITE_SWEEP_SECS: u64 = 2;

/// Layers whose self time the replay reports.
const SELF_TIME_LAYERS: [&str; 5] = ["bench", "kernel-sim", "engine", "fleet", "sim-core"];

/// One replay pass.
struct Replay {
    wall_s: f64,
    /// Each job's `clock_switches`, as the replay's results give it.
    clock_switches: Vec<u64>,
}

pub fn run(bench: &mut Bench, seconds: f64, out_root: &Path) -> Result<Outcome, String> {
    bench.setup()?;
    let w = bench.workload;
    let specs = match w {
        Workload::GridWarm => bench.specs(),
        Workload::Fleet => (0..bench.population.devices)
            .map(|d| bench.population.spec_for(d))
            .collect(),
    };

    // 1. Replays, untraced and traced in turn.
    let mut replay_agg = Agg::default();
    let (mut plain_rates, mut traced_rates, mut exec_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut replay_jobs, mut traced_jobs) = (0u64, 0u64);
    let mut first_spans = None;
    let mut served_switches = Vec::new();
    let started = Instant::now();
    while traced_rates.is_empty() || started.elapsed().as_secs_f64() < seconds {
        for on in [false, true] {
            let mut t = Tracer::new(on);
            let r = match w {
                Workload::GridWarm => replay_grid(&mut t, bench, &specs)?,
                Workload::Fleet => replay_fleet(&mut t, &bench.population)?,
            };
            let jobs = specs.len() as u64;
            let rate = jobs as f64 / r.wall_s;
            replay_jobs += jobs;
            if !on {
                plain_rates.push(rate);
                continue;
            }
            traced_rates.push(rate);
            traced_jobs += jobs;
            served_switches = r.clock_switches;
            let spans = t.take();
            let mut pass = Agg::default();
            pass.add(&spans);
            exec_s.push(pass.total_ns("kernel-sim.execute") as f64 / 1e9);
            replay_agg.add(&spans);
            first_spans.get_or_insert(spans);
        }
    }

    let counts = kernel_counts(&specs, &served_switches)?;

    // 2. The workload's entry point at 1 and 2 workers.
    let mut rates = [Vec::new(), Vec::new()];
    let mut walls2 = Vec::new();
    let (mut hits, mut cells, mut retries, mut failed, mut quarantined) = (0, 0, 0, 0, 0);
    let mut last_sweep: Option<Sweep> = None;
    for _ in 0..ENGINE_PASSES {
        for workers in [1, JOBS] {
            let p = bench.pass(workers);
            bench.check_pass(&p)?;
            rates[usize::from(workers > 1)].push(p.jobs_per_s());
            if workers == JOBS {
                walls2.push(p.wall.as_secs_f64());
            }
            hits += p.cache_hits;
            cells += p.jobs;
            retries += p.retries;
            failed += p.failed;
            quarantined += p.quarantined;
            if p.sweep.is_some() {
                last_sweep = p.sweep;
            }
        }
    }

    // 3. The layer suite.
    let mut st = Tracer::new(true);
    let suite_specs: Vec<JobSpec> = match w {
        Workload::GridWarm => {
            let stride = (specs.len() / SUITE_SPECS).max(1);
            specs
                .iter()
                .step_by(stride)
                .take(SUITE_SPECS)
                .cloned()
                .collect()
        }
        Workload::Fleet => specs.iter().take(SUITE_SPECS).cloned().collect(),
    };
    let observations = suite_kernel(&mut st, &suite_specs)?;
    suite_engine(&mut st, &suite_specs, &bench.new_state_dir()?)?;
    if w != Workload::Fleet {
        replay_fleet(&mut st, &PopulationConfig::new(SUITE_DEVICES, bench.seed))?;
    }
    let sweep = match last_sweep {
        Some(s) => s,
        None => {
            let config = SweepConfig {
                secs: SUITE_SWEEP_SECS,
                ..SweepConfig::full()
            };
            sweep::run_with(&bench.engine(JOBS), &config, bench.seed).0
        }
    };
    for i in 0..CSV_RENDERS {
        black_box(st.leaf("experiments.csv_render", i as u64, 1, || sweep.csv()));
    }
    let suite_spans = st.take();
    let mut suite_agg = Agg::default();
    suite_agg.add(&suite_spans);

    // Spans go to disk once the timing is over.
    let spans_dir = out_root.join("spans");
    fs::create_dir_all(&spans_dir).map_err(|e| format!("creating {}: {e}", spans_dir.display()))?;
    let spans_path = spans_dir.join(format!("{}-{}.jsonl", w.name(), bench.seed));
    let mut dump = to_json_lines("replay", first_spans.as_deref().unwrap_or(&[]));
    dump.push_str(&to_json_lines("suite", &suite_spans));
    fs::write(&spans_path, dump).map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    println!("spans written to {}", spans_path.display());

    // 4. Metrics.
    let per_op = |name: &str| -> Result<f64, String> {
        replay_agg
            .ns_per_op(name)
            .or_else(|| suite_agg.ns_per_op(name))
            .ok_or_else(|| format!("no spans recorded for {name}"))
    };
    let full = suite_agg
        .ns_per_op("kernel-sim.full")
        .ok_or("no Full kernel spans")?;
    let summary = suite_agg
        .ns_per_op("kernel-sim.summary")
        .ok_or("no Summary kernel spans")?;
    let reference = suite_agg
        .ns_per_op("kernel-sim.reference")
        .ok_or("no reference kernel spans")?;
    let traced = median(&traced_rates);
    let plain = median(&plain_rates);
    let mut m = vec![
        Metric::new("kernel-sim.full_ns_per_tick", full, "ns"),
        Metric::new("kernel-sim.summary_ns_per_tick", summary, "ns"),
        Metric::new("kernel-sim.emission_ns_per_tick", full - summary, "ns"),
        Metric::new("kernel-sim.reference_ns_per_tick", reference, "ns"),
        Metric::new("kernel-sim.speedup_vs_reference", reference / full, "x"),
        Metric::new("kernel-sim.ticks", counts.0 as f64, "count"),
        Metric::new("kernel-sim.clock_switches", counts.1 as f64, "count"),
        Metric::new("workloads.spawn_us", per_op("workloads.spawn")? / 1e3, "us"),
        Metric::new("policies.predict_ns", per_op("policies.predict")?, "ns"),
        Metric::new("policies.observations", observations as f64, "count"),
        Metric::new("itsy-hw.core_power_ns", per_op("itsy-hw.core_power")?, "ns"),
        Metric::new(
            "itsy-hw.battery_drain_ns",
            per_op("itsy-hw.battery_drain")?,
            "ns",
        ),
        Metric::new("engine.key_ns", per_op("engine.key")?, "ns"),
        Metric::new("engine.decode_us", per_op("engine.decode")? / 1e3, "us"),
        Metric::new(
            "engine.cache_probe_us",
            per_op("engine.cache_probe")? / 1e3,
            "us",
        ),
        Metric::new("engine.encode_us", per_op("engine.encode")? / 1e3, "us"),
        Metric::new(
            "engine.cache_store_us",
            per_op("engine.cache_store")? / 1e3,
            "us",
        ),
        Metric::new(
            "engine.journal_record_us",
            per_op("engine.journal_record")? / 1e3,
            "us",
        ),
        Metric::new(
            "engine.cache_hit_share",
            hits as f64 / cells as f64,
            "share",
        ),
        Metric::new("engine.retries", retries as f64, "count"),
        Metric::new("engine.failed", failed as f64, "count"),
        Metric::new("engine.quarantined", quarantined as f64, "count"),
        Metric::new(
            "engine.overhead_share",
            1.0 - median(&exec_s) / (JOBS as f64 * median(&walls2)),
            "share",
        ),
        Metric::new(
            "engine.parallel_efficiency",
            median(&rates[1]) / (JOBS as f64 * median(&rates[0])),
            "share",
        ),
        Metric::new("fleet.spec_for_ns", per_op("fleet.spec_for")?, "ns"),
        Metric::new("fleet.fold_ns", per_op("fleet.fold")?, "ns"),
        Metric::new("fleet.merge_us", per_op("fleet.merge")? / 1e3, "us"),
        Metric::new(
            "sim-core.summary_merge_us",
            per_op("sim-core.summary_merge")? / 1e3,
            "us",
        ),
        Metric::new(
            "experiments.csv_render_us",
            per_op("experiments.csv_render")? / 1e3,
            "us",
        ),
        Metric::new("bench.untraced_jobs_per_s", plain, "1/s"),
        Metric::new("bench.traced_jobs_per_s", traced, "1/s"),
        Metric::new("bench.trace_overhead_share", 1.0 - traced / plain, "share"),
    ];
    for layer in SELF_TIME_LAYERS {
        m.push(Metric::new(
            format!("{layer}.self_us_per_job"),
            replay_agg.self_ns(layer) as f64 / 1e3 / traced_jobs as f64,
            "us",
        ));
    }
    Ok(Outcome {
        attempted: replay_jobs + cells,
        failed,
        metrics: m,
    })
}

/// One serial pass over the grid's cells against the cache `bench`'s
/// set-up filled: the engine's per-cell calls on a hit.
fn replay_grid(t: &mut Tracer, bench: &Bench, specs: &[JobSpec]) -> Result<Replay, String> {
    let cache = ResultCache::new(bench.state_dir().join("cache"));
    let faults = FaultInjector::inert();
    let mut clock_switches = Vec::with_capacity(specs.len());
    let started = Instant::now();
    for (i, spec) in specs.iter().enumerate() {
        let job = i as u64;
        t.enter("bench.job", job);
        black_box(t.leaf("engine.key", job, 1, || spec.key()));
        let r = match t.leaf("engine.cache_probe", job, 1, || cache.probe(spec, &faults)) {
            CacheProbe::Hit(r) => r,
            CacheProbe::Miss | CacheProbe::Quarantined => {
                return Err(format!("{} is not served from the cache", spec.label()))
            }
        };
        clock_switches.push(r.clock_switches);
        t.exit(1);
    }
    Ok(Replay {
        wall_s: started.elapsed().as_secs_f64(),
        clock_switches,
    })
}

/// One serial pass over a population, folding devices in chunks the way
/// engine workers do. Checks that the two merge paths agree.
fn replay_fleet(t: &mut Tracer, pop: &PopulationConfig) -> Result<Replay, String> {
    let mut total = FleetAccum::default();
    let mut summary = FleetSummary::new();
    let mut chunk = FleetAccum::default();
    let mut clock_switches = Vec::with_capacity(pop.devices as usize);
    let started = Instant::now();
    for d in 0..pop.devices {
        t.enter("bench.job", d);
        let spec = t.leaf("fleet.spec_for", d, 1, || pop.spec_for(d));
        let r = t.leaf("kernel-sim.execute", d, 1, || spec.execute());
        t.leaf("fleet.fold", d, 1, || {
            fleet::fold_result(&mut chunk, d, &spec, &r, &[])
        });
        if (d + 1) % FOLD_CHUNK == 0 || d + 1 == pop.devices {
            t.leaf("fleet.merge", d, 1, || total.merge(&chunk));
            t.leaf("sim-core.summary_merge", d, 1, || {
                summary.merge(&chunk.summary)
            });
            chunk = FleetAccum::default();
        }
        clock_switches.push(r.clock_switches);
        t.exit(1);
    }
    let wall_s = started.elapsed().as_secs_f64();
    if summary.encode() != total.summary.encode() || summary.devices() != pop.devices {
        return Err("fleet replay: summary merge and accumulator merge disagree".into());
    }
    Ok(Replay {
        wall_s,
        clock_switches,
    })
}

/// The kernel's own tick and clock-switch totals over `specs`, each run
/// through `Kernel::run` at its own fidelity. Each run's switch count
/// must equal the one the workload served for that spec.
fn kernel_counts(specs: &[JobSpec], served_switches: &[u64]) -> Result<(u64, u64), String> {
    let (mut ticks, mut switches) = (0, 0);
    for (spec, &served) in specs.iter().zip(served_switches) {
        let report = run_kernel(spec);
        if report.clock_switches != served {
            return Err(format!(
                "{}: the kernel made {} clock switches, the workload served {served}",
                spec.label(),
                report.clock_switches
            ));
        }
        ticks += kernel_ticks(&report);
        switches += report.clock_switches;
    }
    Ok((ticks, switches))
}

/// A kernel set up the way `JobSpec::execute` sets one up, before the
/// workload is spawned.
fn kernel_for(spec: &JobSpec) -> Kernel {
    let mut config = KernelConfig {
        duration: spec.duration,
        fidelity: spec.fidelity,
        ..KernelConfig::default()
    };
    if let Some(q) = spec.quantum {
        config.quantum = q;
    }
    let mut machine = Machine::itsy(spec.initial_step, spec.workload.devices());
    machine.power = spec.hw.power_model();
    if let Some(battery) = spec.hw.battery() {
        machine = machine.with_battery(battery);
    }
    Kernel::new(machine, config)
}

/// Completed quanta of a run: one utilization sample each at Full
/// fidelity, the report's `ticks` counter at Summary.
fn kernel_ticks(report: &KernelReport) -> u64 {
    if report.fidelity.is_summary() {
        report.ticks
    } else {
        report.utilization.len() as u64
    }
}

/// Runs `spec` on the kernel directly, as `JobSpec::execute` does.
fn run_kernel(spec: &JobSpec) -> KernelReport {
    let mut kernel = kernel_for(spec);
    spec.workload.spawn_into(&mut kernel, spec.seed);
    kernel.install_policy(spec.policy.build(ClockTable::sa1100()));
    kernel.run()
}

/// Kernel, workload, predictor and power-model loops over `specs`.
/// Returns the number of predictor observations made.
fn suite_kernel(t: &mut Tracer, specs: &[JobSpec]) -> Result<u64, String> {
    let mut observations = 0u64;
    let mut ticks = Vec::with_capacity(specs.len());
    let table = ClockTable::sa1100();
    for (i, spec) in specs.iter().enumerate() {
        let job = i as u64;
        let mut kernel = kernel_for(&spec.clone().with_fidelity(SimFidelity::Full));
        t.leaf("workloads.spawn", job, 1, || {
            spec.workload.spawn_into(&mut kernel, spec.seed)
        });
        kernel.install_policy(spec.policy.build(table.clone()));
        let report = kernel.run();
        // The Full run's utilization samples and a Summary run's tick
        // counter must agree.
        let util = report.utilization.values();
        let summary_ticks = run_kernel(&spec.clone().with_fidelity(SimFidelity::Summary)).ticks;
        if util.len() as u64 != summary_ticks {
            return Err(format!(
                "{} recorded {} utilization samples at Full, {summary_ticks} ticks at Summary",
                spec.label(),
                util.len(),
            ));
        }
        ticks.push(summary_ticks);

        // Predictors replayed over the run's recorded utilization.
        let mut predictors: Vec<Box<dyn Predictor>> = vec![Box::new(Past::new())];
        predictors.extend((0..=10).map(|n| Box::new(AvgN::new(n)) as Box<dyn Predictor>));
        for p in &mut predictors {
            let sum = t.leaf("policies.predict", job, util.len() as u64, || {
                util.iter().map(|&u| p.observe(black_box(u))).sum::<f64>()
            });
            black_box(sum);
            observations += util.len() as u64;
        }

        // Power model across every clock step, mode and voltage.
        let model = spec.hw.power_model();
        let modes = [CpuMode::Run, CpuMode::Nap, CpuMode::Stalled];
        let calls = (CORE_POWER_REPS * table.len() * modes.len() * 2) as u64;
        let watts = t.leaf("itsy-hw.core_power", job, calls, || {
            let mut w = 0.0;
            for _ in 0..CORE_POWER_REPS {
                for (_, f) in table.iter() {
                    for mode in modes {
                        for v in [V_HIGH, V_LOW] {
                            w += model.core_power(mode, black_box(f), v).as_watts();
                        }
                    }
                }
            }
            w
        });
        black_box(watts);

        // A battery drained by the run's recorded power draw.
        let power = report.power_w.values();
        let quantum = KernelConfig::default().quantum;
        let mut battery = Battery::new(BatteryParams::default());
        t.leaf("itsy-hw.battery_drain", job, power.len() as u64, || {
            for &w in &power {
                battery.drain(Power::from_watts(black_box(w)), quantum);
            }
        });
        black_box(battery.remaining_joules());
    }

    for round in 0..KERNEL_ROUNDS {
        for (i, (spec, &n)) in specs.iter().zip(&ticks).enumerate() {
            let job = (round * specs.len() + i) as u64;
            let full = spec.clone().with_fidelity(SimFidelity::Full);
            let summary = spec.clone().with_fidelity(SimFidelity::Summary);
            let a = t.leaf("kernel-sim.full", job, n, || full.execute());
            black_box(t.leaf("kernel-sim.summary", job, n, || summary.execute()));
            let b = t.leaf("kernel-sim.reference", job, n, || full.execute_reference());
            if a.encode() != b.encode() {
                return Err(format!("{} differs from the reference loop", spec.label()));
            }
        }
    }
    Ok(observations)
}

/// Every engine call on `specs`' results, against a scratch cache and
/// journal under the empty directory `dir`.
fn suite_engine(t: &mut Tracer, specs: &[JobSpec], dir: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| format!("suite I/O: {e}");
    let cache = ResultCache::new(dir.join("cache"));
    let faults = FaultInjector::inert();
    let mut journal = Journal::open(&dir.join("state"), "suite").map_err(io)?;
    for (i, spec) in specs.iter().enumerate() {
        let job = i as u64;
        let r = spec.execute();
        let key = t.leaf("engine.key", job, 1, || spec.key());
        let text = t.leaf("engine.encode", job, 1, || r.encode());
        let back = t.leaf("engine.decode", job, 1, || JobResult::decode(&text));
        t.leaf("engine.cache_store", job, 1, || cache.store(spec, &r))
            .map_err(io)?;
        let hit = t.leaf("engine.cache_probe", job, 1, || cache.probe(spec, &faults));
        t.leaf("engine.journal_record", job, 1, || journal.record(key, &r))
            .map_err(io)?;
        let served = hit.hit().map(|h| h.encode());
        if back.map(|b| b.encode()).as_ref() != Some(&text) || served.as_ref() != Some(&text) {
            return Err(format!(
                "{}: engine round trip changed the result",
                spec.label()
            ));
        }
    }
    journal.finish().map_err(io)
}
