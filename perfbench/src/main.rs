//! End-to-end and per-layer benchmark of the itsy-dvs crates.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <grid_warm|fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Every input derives from `--seed`;
//! the crates receive only the generated `SweepConfig` or
//! `PopulationConfig`. With `--trace 0` the run repeats the workload
//! for `--seconds` and reports the end-to-end metrics; with `--trace 1`
//! it reports the per-layer metrics instead (see `layers.rs` and
//! README.md). Either way the last line of standard output is one JSON
//! object, and a failed output check makes the run exit non-zero.
//!
//! Scratch state (caches, journals, span dumps) lives under
//! `.bench_out/` in the working directory and is left there; see
//! [`Bench::new_state_dir`].

mod layers;
mod trace;

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use engine::key::fnv64;
use engine::{Engine, EngineConfig, JobResult, JobSpec, ResultCache};
use experiments::sweep::{self, Sweep, SweepConfig};
use fleet::PopulationConfig;
use sim_core::FleetSummary;

/// Engine workers for `grid_warm`'s timed passes and for the 2-worker
/// side of `engine.parallel_efficiency`: `nproc` on the 2-core host the
/// bounds were set on. See [`Workload::workers`].
const JOBS: usize = 2;
/// Simulated seconds per grid cell (`SweepConfig::full()` uses 30).
/// Four times the paper grid's length keeps the kernel, not the cache
/// and journal writes, the larger share of the cold pass in
/// `grid_warm`'s set-up: on a filesystem with online discard those
/// writes cost 2-3x more CPU for a while after heavy file churn, and at
/// 30 s that swing dominated the pass.
const GRID_SECS: u64 = 120;
/// Devices per fleet pass: short passes, many per run (see
/// [`end_to_end`]).
const FLEET_DEVICES: u64 = 10_000;
/// Set-ups per run, spread over the run.
const SETUP_REPS: usize = 9;
/// The quantile every run reads its pass rates at: the lower quartile.
/// CPU per job and set-up times, where lower is better, are read at
/// `1 - RATE_QUANTILE`. See [`end_to_end`].
const RATE_QUANTILE: f64 = 0.25;
/// Grid cells whose cold result is re-simulated on the reference loop.
const REFERENCE_SAMPLE: usize = 16;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    GridWarm,
    Fleet,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "grid_warm" => Some(Workload::GridWarm),
            "fleet" => Some(Workload::Fleet),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::GridWarm => "grid_warm",
            Workload::Fleet => "fleet",
        }
    }

    /// Engine workers for the workload's set-ups and timed passes.
    ///
    /// The fleet runs one, on one CPU (see [`pin_to_one_cpu`]):
    /// `run_stream` adds a producer and a drainer thread and hands every
    /// device across two small channels, so a pass is a chain of thread
    /// wake-ups, about 30% of its CPU in the kernel. Spread over the
    /// 2-core host, each wake-up of the other virtual CPU waits on the
    /// hypervisor, and the rate followed the host's load rather than the
    /// program: at 2 workers ten runs of one build spread 0.28 to 0.31 of
    /// their median, and at 1 worker a period of 10-25% steal time cut
    /// it from about 37k to 13k-24k devices/s. On one CPU the same
    /// period costs about its own share. The 2-worker fleet, and what its
    /// second worker adds, is measured by `engine.parallel_efficiency`
    /// in the traced run, which is not pinned.
    pub fn workers(self) -> usize {
        match self {
            Workload::GridWarm => JOBS,
            Workload::Fleet => 1,
        }
    }
}

/// What one pass of a workload did and cost.
pub struct Pass {
    pub jobs: u64,
    pub failed: u64,
    pub wall: Duration,
    /// FNV-1a 64 of the pass's deterministic output (sweep CSV or
    /// `fleet::digest`), printed so runs of one seed can be compared
    /// across commits.
    pub digest: u64,
    pub cache_hits: u64,
    pub retries: u64,
    pub quarantined: u64,
    /// The grid's rendered sweep (grid_warm only).
    pub sweep: Option<Sweep>,
    /// The fleet's merged summary (fleet only).
    pub summary: Option<FleetSummary>,
}

impl Pass {
    pub fn jobs_per_s(&self) -> f64 {
        self.jobs as f64 / self.wall.as_secs_f64()
    }
}

/// One workload's inputs and scratch directories.
pub struct Bench {
    pub workload: Workload,
    pub seed: u64,
    pub grid: SweepConfig,
    pub population: PopulationConfig,
    /// Per-run scratch root, removed when the run ends.
    pub dir: PathBuf,
    /// The digest every pass of this seed must reproduce.
    pub expected_digest: Option<u64>,
    /// Number of the newest state directory under `dir`.
    generation: u32,
}

impl Bench {
    fn new(workload: Workload, seed: u64, dir: PathBuf) -> Self {
        Bench {
            workload,
            seed,
            grid: grid_config(),
            population: PopulationConfig::new(FLEET_DEVICES, seed),
            dir,
            expected_digest: None,
            generation: 0,
        }
    }

    /// The engine state directory the timed passes use.
    pub fn state_dir(&self) -> PathBuf {
        self.dir.join(format!("state-{}", self.generation))
    }

    /// Makes a new, empty state directory and returns it.
    ///
    /// Nothing is ever deleted, not even when the run ends: on a
    /// filesystem mounted with online discard (as on the host the bounds
    /// were set on), after a few thousand cache files are deleted,
    /// creating files in the same block group costs up to 8x the system
    /// CPU for minutes, which would land on this run's or the next run's
    /// set-up (a cold cache fill read 0.8 s in a clean group and 1.3 to
    /// 1.7 s in one where earlier set-ups had been deleted).
    pub fn new_state_dir(&mut self) -> Result<PathBuf, String> {
        self.generation += 1;
        let dir = self.state_dir();
        fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(dir)
    }

    pub fn engine(&self, jobs: usize) -> Engine {
        engine_at(&self.state_dir(), jobs)
    }

    pub fn specs(&self) -> Vec<JobSpec> {
        sweep::specs(&self.grid, self.seed)
    }

    /// One timed pass of the workload through the crates' public entry
    /// points: `sweep::run_with` plus `Sweep::csv`, or `fleet::run`.
    pub fn pass(&self, jobs: usize) -> Pass {
        let eng = self.engine(jobs);
        match self.workload {
            Workload::GridWarm => grid_pass(&eng, &self.grid, self.seed),
            Workload::Fleet => {
                let started = Instant::now();
                let out = fleet::run(&eng, "fleet", &self.population);
                let wall = started.elapsed();
                Pass {
                    jobs: out.stats.total,
                    failed: out.stats.failed,
                    wall,
                    digest: fnv64(fleet::digest(&out.acc.summary).as_bytes()),
                    cache_hits: 0,
                    retries: out.metrics.retries,
                    quarantined: 0,
                    sweep: None,
                    summary: Some(out.acc.summary),
                }
            }
        }
    }

    /// Checks one pass's outputs; records the seed's digest on first use.
    pub fn check_pass(&mut self, p: &Pass) -> Result<(), String> {
        if p.failed > 0 {
            return Err(format!("{} of {} jobs failed", p.failed, p.jobs));
        }
        match self.workload {
            Workload::GridWarm => {
                let sweep = p.sweep.as_ref().expect("grid pass keeps its sweep");
                let cells = self.grid.benchmarks.len()
                    * self.grid.ns.len()
                    * self.grid.rules.len().pow(2)
                    * self.grid.thresholds.len();
                if sweep.cells.len() != cells || !sweep.failed.is_empty() {
                    return Err(format!(
                        "sweep has {} of {cells} cells, {} failure(s)",
                        sweep.cells.len(),
                        sweep.failed.len()
                    ));
                }
                if p.cache_hits != p.jobs {
                    return Err(format!(
                        "warm pass served {} of {} cells from the cache",
                        p.cache_hits, p.jobs
                    ));
                }
            }
            Workload::Fleet => {
                let s = p.summary.as_ref().expect("fleet pass keeps its summary");
                if s.devices() != self.population.devices || s.failed() != 0 {
                    return Err(format!(
                        "fleet summarized {} of {} devices, {} failed",
                        s.devices(),
                        self.population.devices,
                        s.failed()
                    ));
                }
            }
        }
        match self.expected_digest {
            None => self.expected_digest = Some(p.digest),
            Some(d) if d != p.digest => {
                return Err(format!(
                    "output digest {:016x} differs from this seed's {d:016x}",
                    p.digest
                ))
            }
            Some(_) => {}
        }
        Ok(())
    }

    /// One set-up: the passes' starting state plus one untimed warm-up
    /// pass. Returns its wall time.
    ///
    /// For `grid_warm` the state is a cache filled by a cold grid pass in
    /// a child process, so this process's peak RSS reflects warm passes
    /// only; the fleet needs no state.
    pub fn setup(&mut self) -> Result<f64, String> {
        let started = Instant::now();
        if self.workload == Workload::GridWarm {
            let dir = self.new_state_dir()?;
            fill_cache_in_child(&dir, self.seed)?;
            settle(&self.dir)?;
        }
        let p = self.pass(self.workload.workers());
        let secs = started.elapsed().as_secs_f64();
        self.check_pass(&p)?;
        Ok(secs)
    }

    /// Checks that hold across the whole run, made after the timing.
    fn final_checks(&self) -> Result<(), String> {
        if self.workload == Workload::Fleet {
            return Ok(());
        }
        // The state directory holds the set-up's cold cache; a sample of
        // it must match the tick-by-tick reference loop exactly.
        let cache = ResultCache::new(self.state_dir().join("cache"));
        let specs = self.specs();
        let stride = (specs.len() / REFERENCE_SAMPLE).max(1);
        for spec in specs.iter().step_by(stride).take(REFERENCE_SAMPLE) {
            let stored = cache
                .load(spec)
                .ok_or_else(|| format!("no cached result for {}", spec.label()))?;
            if stored.encode() != spec.execute_reference().encode() {
                return Err(format!("{} differs from the reference loop", spec.label()));
            }
        }
        // Every served result must equal a fresh cold one.
        let served = self.engine(JOBS).run_batch("sweep", &specs);
        if served.stats.cache_hits != specs.len() {
            return Err(format!(
                "check pass served {} of {} cells from the cache",
                served.stats.cache_hits,
                specs.len()
            ));
        }
        let cold = Engine::new(EngineConfig {
            jobs: JOBS,
            ..EngineConfig::hermetic()
        })
        .run_batch("sweep", &specs);
        for ((spec, w), c) in specs.iter().zip(&served.results).zip(&cold.results) {
            let enc = |r: &Result<JobResult, _>| r.as_ref().ok().map(JobResult::encode);
            if enc(w).is_none() || enc(w) != enc(c) {
                return Err(format!(
                    "{} served a result unlike a cold run",
                    spec.label()
                ));
            }
        }
        Ok(())
    }
}

/// The §5.3 full grid (4 apps × AVG_0..10 × 9 rule pairs × 2 threshold
/// pairs, plus 4 baselines) at [`GRID_SECS`] per cell.
pub fn grid_config() -> SweepConfig {
    SweepConfig {
        secs: GRID_SECS,
        ..SweepConfig::full()
    }
}

/// An engine with cache and journal on, rooted at `state`.
pub fn engine_at(state: &Path, jobs: usize) -> Engine {
    Engine::new(EngineConfig {
        jobs,
        state_root: Some(state.to_path_buf()),
        ..EngineConfig::default()
    })
}

pub fn grid_pass(eng: &Engine, config: &SweepConfig, seed: u64) -> Pass {
    let started = Instant::now();
    let (sweep, stats, metrics) = sweep::run_with(eng, config, seed);
    let csv = sweep.csv();
    let wall = started.elapsed();
    Pass {
        jobs: stats.total as u64,
        failed: stats.failed as u64,
        wall,
        digest: fnv64(csv.as_bytes()),
        cache_hits: stats.cache_hits as u64,
        retries: metrics.retries,
        quarantined: stats.quarantined as u64,
        sweep: Some(sweep),
        summary: None,
    }
}

/// Waits until the filesystem has committed the metadata changes under
/// `dir` (fsync of a directory commits the filesystem's journal), so
/// the next pass does not compete with that commit.
fn settle(dir: &Path) -> Result<(), String> {
    fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| format!("syncing {}: {e}", dir.display()))
}

/// Runs a cold grid pass into `state` in a child copy of this program.
fn fill_cache_in_child(state: &Path, seed: u64) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let status = Command::new(exe)
        .arg("--fill-cache")
        .arg(state)
        .arg("--seed")
        .arg(seed.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("starting the cache fill: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("cache fill exited with {status}"))
    }
}

/// Process CPU time (user + system, all threads, exited ones included),
/// seconds, at nanosecond resolution.
fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock id is a constant the C
    // library accepts; the call writes only through the pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Confines the calling thread, and every thread it starts from now on,
/// to the first CPU it may run on. See [`Workload::workers`].
fn pin_to_one_cpu() -> Result<(), String> {
    /// A `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: each call is given a live `CpuSet` and its exact size, and
    // only reads or writes through that pointer; pid 0 names the calling
    // thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) };
    if rc != 0 {
        return Err("reading the CPU affinity failed".into());
    }
    let word = allowed
        .iter()
        .position(|&w| w != 0)
        .ok_or("no CPU is allowed")?;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << allowed[word].trailing_zeros();
    // SAFETY: as above.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
    if rc != 0 {
        return Err("setting the CPU affinity failed".into());
    }
    Ok(())
}

/// The `q`-quantile of `values` (linear between order statistics).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A metric as the result line reports it.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// The untraced run: set up, then repeat timed passes for `seconds`,
/// setting up again [`SETUP_REPS`]` - 1` times at even intervals.
///
/// The host these bounds were set on alternates, seconds at a time,
/// between its usual state and one about 1.6x faster, and the share of
/// a run spent in the fast state varies from run to run, so the median
/// pass and the fast tail both swing with it. Every figure is therefore
/// read at the slow side, at one fixed quantile whatever the speed under
/// test: [`RATE_QUANTILE`] of the pass rates, and `1 - RATE_QUANTILE`
/// of the CPU per job and of the set-up times. That side is also where
/// a change that slows only some passes shows. The medians are printed
/// alongside.
fn end_to_end(bench: &mut Bench, seconds: f64) -> Result<Outcome, String> {
    if bench.workload == Workload::Fleet {
        pin_to_one_cpu()?;
    }
    let mut setups = vec![bench.setup()?];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut rates, mut cpu_per_job) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while rates.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let due = setups.len() as f64 * seconds / SETUP_REPS as f64;
        if setups.len() < SETUP_REPS && started.elapsed().as_secs_f64() >= due {
            setups.push(bench.setup()?);
        }
        let cpu_before = cpu_seconds();
        let p = bench.pass(bench.workload.workers());
        cpu_per_job.push((cpu_seconds() - cpu_before) * 1e6 / p.jobs as f64);
        attempted += p.jobs;
        failed += p.failed;
        rates.push(p.jobs_per_s());
        bench.check_pass(&p)?;
    }
    let peak_rss = obs::host::peak_rss_bytes().ok_or("peak RSS is unavailable")?;
    bench.final_checks()?;
    println!(
        "{}: {} passes, {attempted} jobs in {:.1}s; \
         median pass {:.1} jobs/s, {:.2} us CPU/job; median set-up {:.4}s",
        bench.workload.name(),
        rates.len(),
        started.elapsed().as_secs_f64(),
        median(&rates),
        median(&cpu_per_job),
        median(&setups),
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            Metric::new("setup_s", quantile(&setups, 1.0 - RATE_QUANTILE), "s"),
            Metric::new("jobs_per_s", quantile(&rates, RATE_QUANTILE), "1/s"),
            Metric::new(
                "cpu_us_per_job",
                quantile(&cpu_per_job, 1.0 - RATE_QUANTILE),
                "us",
            ),
            Metric::new("peak_rss_mb", peak_rss as f64 / 1e6, "MB"),
            Metric::new(
                "completed_share",
                1.0 - failed as f64 / attempted as f64,
                "share",
            ),
        ],
    })
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(num(value)?),
            "--seconds" => seconds = Some(num(value)?.max(1) as f64),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn result_line(correct: bool, o: &Outcome) -> String {
    let mut m = String::new();
    for (i, metric) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if metric.value.is_finite() {
            format!("{}", metric.value)
        } else {
            "null".to_string()
        };
        write!(
            m,
            r#"{sep}"{}": {{"value": {value}, "unit": "{}"}}"#,
            metric.name, metric.unit
        )
        .expect("writing to a String cannot fail");
    }
    format!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{m}}}}}"#,
        o.attempted, o.failed
    )
}

/// The child process behind `grid_warm` set-up: one cold grid pass into
/// the given state directory.
fn fill_cache_main(argv: &[String]) -> Result<(), String> {
    let [_, dir, seed_flag, seed] = argv else {
        return Err("usage: --fill-cache <dir> --seed <n>".into());
    };
    if seed_flag != "--seed" {
        return Err("usage: --fill-cache <dir> --seed <n>".into());
    }
    let seed = seed.parse().map_err(|_| format!("bad seed `{seed}`"))?;
    let p = grid_pass(&engine_at(Path::new(dir), JOBS), &grid_config(), seed);
    if p.failed > 0 {
        return Err(format!("{} cells failed", p.failed));
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--fill-cache") {
        if let Err(e) = fill_cache_main(&argv) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out_root = PathBuf::from(".bench_out");
    let dir = out_root.join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let mut bench = Bench::new(args.workload, args.seed, dir);
    let run = if args.trace {
        layers::run(&mut bench, args.seconds, &out_root)
    } else {
        end_to_end(&mut bench, args.seconds)
    };
    match run {
        Ok(o) => {
            for m in &o.metrics {
                println!("metric {:<40} {:>16.6} {}", m.name, m.value, m.unit);
            }
            if let Some(d) = bench.expected_digest {
                println!(
                    "digest {} seed={} fnv64={d:016x}",
                    args.workload.name(),
                    args.seed
                );
            }
            println!("{}", result_line(true, &o));
        }
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            std::process::exit(1);
        }
    }
}
