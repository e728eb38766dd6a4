//! The dmc benchmark: drives seeded jobs through the compiler's public
//! API, checks every output, and reports end-to-end metrics (untraced
//! runs) or per-layer metrics (traced runs). See `README.md` beside this
//! crate for the workloads and the metric map.
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload kernels-checked --seed 1 --seconds 45 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod job;
mod kernels;
mod rng;
mod spans;
mod store;
mod workload;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use job::Counts;
use workload::Workload;

/// Set-ups per run; `setup_s` is their median. The first builds the
/// workload the run uses. The rest are made between rounds of the first
/// timed phase, on a schedule spread over its `--seconds`, and discarded,
/// so set-up time meets the same host drift as the jobs do.
const SETUPS: usize = 8;
/// Untraced runs make at least this many rounds, so each job's best
/// repetition is the best of several.
const MIN_ROUNDS: usize = 5;
/// Where runs keep their scratch store and span dumps, relative to the
/// working directory.
const WORK_DIR: &str = ".e2ebench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--write-expected" => {
                workload::write_expected(&PathBuf::from(value))?;
                std::process::exit(0);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Set-ups of one run's workload and what each took.
struct Setups<'a> {
    args: &'a Args,
    work: PathBuf,
    setup_s: Vec<f64>,
    oracle_s: Vec<f64>,
}

impl Setups<'_> {
    fn build(&mut self) -> Result<Workload, String> {
        let t0 = Instant::now();
        let w = Workload::build(&self.args.workload, self.args.seed, &self.work)?;
        self.setup_s.push(t0.elapsed().as_secs_f64());
        self.oracle_s.push(w.oracle_s);
        Ok(w)
    }
}

/// What one timed phase measured.
#[derive(Default)]
struct Phase {
    /// Per-job pipeline wall seconds, in run order.
    latencies: Vec<f64>,
    /// Per slot, its least pipeline wall seconds over the phase's rounds.
    best: Vec<f64>,
    /// Wall seconds of the phase: jobs, checks and probes, excluding
    /// the set-ups and store restores between rounds.
    wall: f64,
    attempted: u64,
    failed: u64,
    rounds: usize,
    /// Exact counters of each round (traced phases only).
    round_counts: Vec<Counts>,
    /// Ids of the jobs whose every stage was served from the store.
    hit_jobs: BTreeSet<u64>,
}

/// Runs whole rounds of the workload's jobs until `min_seconds` have
/// passed and `min_rounds` rounds have run, or exactly `rounds` rounds. With
/// `setups`, makes the run's remaining set-ups between rounds as they
/// fall due; all are made by the time `min_seconds` have passed.
fn phase(
    w: &mut Workload,
    mut setups: Option<&mut Setups>,
    min_seconds: f64,
    min_rounds: usize,
    rounds: Option<usize>,
    traced: bool,
) -> Result<Phase, String> {
    spans::set_recording(traced);
    let mut p = Phase {
        best: vec![f64::INFINITY; w.slots.len()],
        ..Phase::default()
    };
    let mut job_id = 0u64;
    loop {
        if let Some(s) = setups.as_mut() {
            let due = |made: usize| made as f64 * min_seconds / SETUPS as f64;
            while s.setup_s.len() < SETUPS && p.wall >= due(s.setup_s.len()) {
                s.build()?.remove_store()?;
            }
        }
        let done = match rounds {
            Some(r) => p.rounds >= r,
            None => p.wall >= min_seconds && p.rounds >= min_rounds,
        };
        if done {
            break;
        }
        w.restore_store()?;
        let t0 = Instant::now();
        let mut counts = Counts::default();
        let store = w.store_at();
        for (slot, best) in w.slots.iter_mut().zip(p.best.iter_mut()) {
            job_id += 1;
            spans::set_job(job_id);
            let (secs, result) = job::run(slot, store.as_ref(), traced);
            p.attempted += 1;
            p.latencies.push(secs);
            *best = best.min(secs);
            match result {
                Ok(done) => {
                    let c = &done.counts;
                    if c.stage_hits > 0 && c.stage_misses == 0 {
                        p.hit_jobs.insert(job_id);
                    }
                    counts.add(c);
                }
                Err(why) => {
                    p.failed += 1;
                    eprintln!("job {} failed: {why}", slot.job.label);
                }
            }
        }
        p.wall += t0.elapsed().as_secs_f64();
        p.rounds += 1;
        if traced {
            p.round_counts.push(counts);
        }
    }
    spans::set_recording(false);
    Ok(p)
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of unsorted samples.
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return f64::NAN;
    }
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, (f64, &'static str)>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }

    fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, (v, unit))) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if v.is_finite() { *v } else { 0.0 };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let work = PathBuf::from(WORK_DIR);
    let mut setups = Setups {
        args,
        work: work.clone(),
        setup_s: Vec::new(),
        oracle_s: Vec::new(),
    };
    let mut w = setups.build()?;
    let mut report = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: BTreeMap::new(),
    };
    if !args.trace {
        let p = phase(
            &mut w,
            Some(&mut setups),
            args.seconds,
            MIN_ROUNDS,
            None,
            false,
        )?;
        // Each job's latency is its best repetition in the run. A shared
        // host's speed switches between fast and slow spells lasting
        // seconds to minutes (about 1.6x apart for these jobs on a 2-core
        // VM); a job's fastest round is the one least slowed by them,
        // where a mean or a quantile over all repetitions follows the
        // share of the run that fell in slow spells.
        let ms: Vec<f64> = p.best.iter().map(|s| s * 1e3).collect();
        let q = w.round_quality();
        let checked = (p.attempted - p.failed) as f64 / p.attempted as f64;
        let round_s: f64 = p.best.iter().sum();
        report.put("jobs_per_s", checked * p.best.len() as f64 / round_s, "1/s");
        report.put("job_ms_p50", median(&ms), "ms");
        report.put("job_ms_p90", quantile(&ms, 0.9), "ms");
        report.put("setup_s", median(&setups.setup_s), "s");
        report.put("peak_rss_mb", peak_rss_mb(), "MiB");
        report.put("sim_makespan_s", q.makespan, "s");
        report.put("messages", q.messages as f64, "count");
        report.put("words", q.words as f64, "count");
        eprintln!(
            "{}: {} jobs in {} rounds, {:.2} s timed",
            args.workload, p.attempted, p.rounds, p.wall
        );
        report.attempted = p.attempted;
        report.failed = p.failed;
    } else {
        // The same rounds run untraced, then traced: their job wall
        // times give the tracing overhead.
        let plain = phase(
            &mut w,
            Some(&mut setups),
            args.seconds / 2.0,
            1,
            None,
            false,
        )?;
        let traced = phase(&mut w, None, 0.0, 0, Some(plain.rounds), true)?;
        let spans = spans::take();
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        let dump = work.join(format!("spans-{}-{}.tsv", args.workload, args.seed));
        std::fs::write(&dump, spans::to_tsv(&spans))
            .map_err(|e| format!("{}: {e}", dump.display()))?;
        let tiling = spans::tile(&spans, |_| true)?;
        let hits = spans::tile(&spans, |j| traced.hit_jobs.contains(&j))?;
        let rounds = traced.rounds as f64;
        let c = &traced.round_counts[0];
        let steady = traced.round_counts.iter().all(|r| r == c);
        if !steady {
            eprintln!("counters differ between identical rounds");
        }
        eprintln!(
            "per round ({} jobs):\n{}",
            w.slots.len(),
            tiling.table(rounds)
        );
        if hits.jobs > 0 {
            eprintln!(
                "jobs served wholly from the store, per round:\n{}",
                hits.table(rounds)
            );
        }
        report.correct = steady;
        put_layers(&mut report, &tiling, c, rounds);
        report.put("store.hit_jobs", hits.jobs as f64 / rounds, "count");
        report.put(
            "store.hit_job_ms",
            ratio(hits.job_wall_ns as f64 / 1e6, hits.jobs as f64),
            "ms",
        );
        report.put("store.hit_load_share", hits.share("store.load"), "ratio");
        report.put("ir.oracle_s", median(&setups.oracle_s), "s");
        let plain_wall: f64 = plain.latencies.iter().sum();
        report.put(
            "bench.trace_overhead_ratio",
            tiling.job_wall_ns as f64 / 1e9 / plain_wall,
            "ratio",
        );
        let (attempted, failed) = (
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
        );
        report.put(
            "bench.fail_ratio",
            failed as f64 / attempted as f64,
            "ratio",
        );
        report.attempted = attempted;
        report.failed = failed;
    }
    report.correct &= report.failed == 0;
    w.remove_store()?;
    Ok(report)
}

/// The per-layer metrics of a traced run: self times in ms per round,
/// exact counters of one round.
fn put_layers(r: &mut Report, t: &spans::Tiling, c: &Counts, rounds: f64) {
    let ms = |name: &str| t.ms(name) / rounds;
    r.put("core.plan_ms", ms("core.plan"), "ms");
    r.put("core.plan_share", t.share("core.plan"), "ratio");
    r.put("core.compile_ms", ms("core.compile"), "ms");
    r.put("core.compile_share", t.share("core.compile"), "ratio");
    r.put("ir.parse_ms", ms("ir.parse"), "ms");
    r.put("commgen.enumerate_ms", ms("commgen.enumerate"), "ms");
    r.put("commgen.points", c.points as f64, "count");
    r.put("commgen.comm_sets", c.comm_sets as f64, "count");
    r.put(
        "commgen.points_per_ms",
        ratio(c.points as f64, ms("commgen.enumerate")),
        "1/ms",
    );
    r.put("dataflow.lwt_ms", ms("dataflow.lwt"), "ms");
    r.put("dataflow.lwt_calls", c.lwt_calls as f64, "count");
    r.put("polyhedra.fm_steps", c.poly.fm_steps as f64, "count");
    r.put(
        "polyhedra.feasibility_calls",
        c.poly.feasibility_calls as f64,
        "count",
    );
    r.put("polyhedra.bnb_nodes", c.poly.bnb_nodes as f64, "count");
    let lookups = c.poly.feas_cache_hits + c.poly.feas_cache_misses;
    r.put(
        "polyhedra.feas_cache_hit_ratio",
        ratio(c.poly.feas_cache_hits as f64, lookups as f64),
        "ratio",
    );
    r.put("codegen.ms", ms("codegen"), "ms");
    r.put("codegen.spmd_bytes", c.spmd_bytes as f64, "bytes");
    r.put("machine.sim_ms", ms("machine.sim"), "ms");
    r.put("machine.sim_share", t.share("machine.sim"), "ratio");
    r.put("machine.critpath_ms", ms("machine.critpath"), "ms");
    r.put("machine.events", c.events as f64, "count");
    r.put(
        "machine.sim_us_per_event",
        ratio(ms("machine.sim") * 1e3, c.events as f64),
        "us",
    );
    r.put("machine.transmissions", c.transmissions as f64, "count");
    r.put("store.open_ms", ms("store.open"), "ms");
    r.put("store.load_ms", ms("store.load"), "ms");
    r.put("store.store_ms", ms("store.store"), "ms");
    r.put(
        "store.loads",
        t.count("store.load") as f64 / rounds,
        "count",
    );
    r.put(
        "store.stores",
        t.count("store.store") as f64 / rounds,
        "count",
    );
    r.put("store.bytes_read", c.store.bytes_read as f64, "bytes");
    r.put("store.bytes_written", c.store.bytes_written as f64, "bytes");
    r.put("store.evictions", c.store.evictions as f64, "count");
    r.put("store.corrupt", c.store.corrupt as f64, "count");
    let lookups = c.store.hits + c.store.misses;
    r.put(
        "store.disk_hit_ratio",
        ratio(c.store.hits as f64, lookups as f64),
        "ratio",
    );
    r.put("core.stage_hits", c.stage_hits as f64, "count");
    r.put("core.stage_misses", c.stage_misses as f64, "count");
    r.put("bench.check_ms", ms("bench.check"), "ms");
    r.put("bench.unaccounted_ms", ms(spans::JOB), "ms");
    r.put(
        "bench.job_wall_ms",
        t.job_wall_ns as f64 / 1e6 / rounds,
        "ms",
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            for (name, (v, unit)) in &report.metrics {
                println!("{name:<32} {v:>16.6} {unit}");
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(1)
        }
    }
}
