//! The three workloads: seeded rounds of jobs, their expected outputs, and
//! (for `store-replay`) the persistent store the jobs share. Building a
//! workload is the benchmark's set-up: input generation, oracle reference
//! runs, store pre-population and one warm-up job.

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use crate::job::{self, Expect, Quality, Slot, StoreAt};
use crate::kernels::{self, Job, Toggles};
use crate::rng::{at, Rng};

pub const NAMES: [&str; 3] = ["lu-plan", "kernels-checked", "store-replay"];

/// `lu-plan`'s expected message, transmission, word and makespan figures
/// per (N, P), produced by `--write-expected` after checking each plan in
/// values mode against the sequential interpreter.
const LU_EXPECTED: &str = include_str!("../expected/lu-plan.tsv");

/// `lu-plan` draws N from [48, 80] and P from {8, 16}.
const LU_N: (i128, i128) = (48, 80);
const LU_P: [i128; 2] = [8, 16];

/// A workload's state between rounds.
pub struct Workload {
    /// One round: every job, in run order.
    pub slots: Vec<Slot>,
    /// Seconds spent in sequential-interpreter reference runs.
    pub oracle_s: f64,
    store: Option<Disk>,
}

/// `store-replay`'s persistent store: its directory, byte bound, and the
/// files it held right after pre-population. Every round starts from
/// those files, so every round sees the same store.
struct Disk {
    dir: PathBuf,
    max_bytes: u64,
    files: BTreeMap<PathBuf, Vec<u8>>,
}

impl Workload {
    pub fn build(name: &str, seed: u64, work: &Path) -> Result<Workload, String> {
        let mut rng = Rng::new(seed);
        warm_up()?;
        match name {
            "lu-plan" => lu_plan(&mut rng),
            "kernels-checked" => kernels_checked(&mut rng),
            "store-replay" => store_replay(&mut rng, work),
            _ => Err(format!("unknown workload {name} (one of {NAMES:?})")),
        }
    }

    pub fn store_at(&self) -> Option<StoreAt> {
        self.store.as_ref().map(|d| StoreAt {
            dir: d.dir.clone(),
            max_bytes: Some(d.max_bytes),
        })
    }

    /// Puts the store back to its pre-populated state.
    pub fn restore_store(&self) -> Result<(), String> {
        let Some(d) = &self.store else { return Ok(()) };
        remove_dir(&d.dir)?;
        for (rel, bytes) in &d.files {
            let path = d.dir.join(rel);
            let io = |p: &Path, e: std::io::Error| format!("{}: {e}", p.display());
            if let Some(parent) = path.parent() {
                fs::create_dir_all(parent).map_err(|e| io(parent, e))?;
            }
            fs::write(&path, bytes).map_err(|e| io(&path, e))?;
        }
        Ok(())
    }

    pub fn remove_store(&self) -> Result<(), String> {
        self.store.as_ref().map_or(Ok(()), |d| remove_dir(&d.dir))
    }

    /// The generated code's quality summed over one round.
    pub fn round_quality(&self) -> Quality {
        let mut q = Quality {
            messages: 0,
            transmissions: 0,
            words: 0,
            makespan: 0.0,
        };
        for s in self.slots.iter().filter_map(|s| s.first) {
            q.messages += s.messages;
            q.transmissions += s.transmissions;
            q.words += s.words;
            q.makespan += s.makespan;
        }
        q
    }
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    match fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("{}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

/// Runs one fixed, checked job (the smallest `lu-plan` job) so lazy
/// initialisation, such as page faults and allocator growth, happens in
/// set-up. It is the same job for every workload and seed.
fn warm_up() -> Result<(), String> {
    let (n, p) = (LU_N.0, LU_P[0]);
    let mut slot = Slot {
        job: kernels::lu(n, p, Toggles::Full, false),
        expect: Expect::Stats(
            *parse_expected()?
                .get(&(n, p))
                .ok_or("no expected figures for the warm-up job")?,
        ),
        first: None,
    };
    let (_, result) = job::run(&mut slot, None, false);
    result
        .map(|_| ())
        .map_err(|e| format!("warm-up job failed: {e}"))
}

fn parse_expected() -> Result<HashMap<(i128, i128), Quality>, String> {
    let mut out = HashMap::new();
    for line in LU_EXPECTED.lines().skip(1) {
        let f: Vec<&str> = line.split('\t').collect();
        let bad = || format!("bad expected line {line:?}");
        if f.len() != 6 {
            return Err(bad());
        }
        let int = |s: &str| s.parse::<u64>().map_err(|_| bad());
        let n = f[0].parse::<i128>().map_err(|_| bad())?;
        let p = f[1].parse::<i128>().map_err(|_| bad())?;
        let q = Quality {
            messages: int(f[2])?,
            transmissions: int(f[3])?,
            words: int(f[4])?,
            makespan: f[5].parse().map_err(|_| bad())?,
        };
        out.insert((n, p), q);
    }
    Ok(out)
}

/// Seeded Figure 11 LU jobs in timing mode, where planning dominates.
/// For each P, one N from each of eight buckets of width 4 over [48, 80];
/// bucket `b` and bucket `7 - b` take an antithetic pair of quantiles, so
/// the round's total work barely depends on the seed.
fn lu_plan(rng: &mut Rng) -> Result<Workload, String> {
    const BUCKETS: i128 = 8;
    let width = (LU_N.1 - LU_N.0) / BUCKETS;
    let expected = parse_expected()?;
    let mut slots = Vec::new();
    for p in LU_P {
        let mut quantiles = [0.0; BUCKETS as usize];
        for b in 0..quantiles.len() / 2 {
            [quantiles[b], quantiles[BUCKETS as usize - 1 - b]] = rng.pair();
        }
        for (b, u) in (0..BUCKETS).zip(quantiles) {
            let n = at(u, LU_N.0 + b * width, LU_N.0 + (b + 1) * width);
            let want = *expected
                .get(&(n, p))
                .ok_or_else(|| format!("no expected figures for N={n} P={p}"))?;
            slots.push(Slot {
                job: kernels::lu(n, p, Toggles::Full, false),
                expect: Expect::Stats(want),
                first: None,
            });
        }
    }
    rng.shuffle(&mut slots);
    Ok(Workload {
        slots,
        oracle_s: 0.0,
        store: None,
    })
}

/// Every kernel family under every toggle set it passes, twice, at an
/// antithetic pair of size quantiles (so each pair's work barely depends
/// on the seed), in values mode, each checked against the sequential
/// interpreter run in set-up.
fn kernels_checked(rng: &mut Rng) -> Result<Workload, String> {
    let mut slots = Vec::new();
    let mut oracle_s = 0.0;
    for family in kernels::FAMILIES {
        for (v, &t) in kernels::checked_toggles(family).iter().enumerate() {
            for u in rng.pair() {
                let job = kernels::draw(family, v, u, t);
                let t0 = Instant::now();
                let memory = oracle(&job)?;
                oracle_s += t0.elapsed().as_secs_f64();
                slots.push(Slot {
                    job,
                    expect: Expect::Memory(memory),
                    first: None,
                });
            }
        }
    }
    rng.shuffle(&mut slots);
    Ok(Workload {
        slots,
        oracle_s,
        store: None,
    })
}

fn oracle(job: &Job) -> Result<dmc_ir::interp::Memory, String> {
    let program = dmc_ir::parse(job.source).map_err(|e| format!("{}: {e}", job.label))?;
    let env: HashMap<String, i128> = program
        .params
        .iter()
        .cloned()
        .zip(job.params.iter().copied())
        .collect();
    dmc_ir::interp::run(&program, &env).map_err(|e| format!("{}: oracle: {e}", job.label))
}

/// `store-replay`'s request kinds: the mid-size stencil under the toggle
/// sets whose values-mode results are correct, in values mode. Serving
/// their plans from disk saves real work, and every kind's hits cost about
/// the same. (Timing-mode kinds, whose hits are mostly store work, made
/// every end-to-end time of this workload spread by 15–25% from run to
/// run on the reference host, where each store access's file-system
/// operations are noisy; the simulation keeps the spread near that of the
/// other workloads.)
const REPLAY: [(&str, Toggles); 3] = [
    ("stencil-mid", Toggles::Full),
    ("stencil-mid", Toggles::NoAggregate),
    ("stencil-mid", Toggles::Naive),
];
/// Each kind's two pool requests sit near these size quantiles.
const POOL_QUANTILES: [f64; 2] = [0.25, 0.75];
/// Requests per pool entry in one round.
const REPEATS: usize = 3;

/// Per request kind, two requests are compiled cold into a fresh store.
/// A round replays the pool three times in a fixed order; during the
/// second pass each pool request is followed by a new request (its last
/// size parameter one larger, as in a parameter sweep), so a quarter of
/// the round is new and writes through. Every request runs through a
/// fresh session on the store, as a new process would. The byte bound is
/// half again the pool's resident size, so new requests evict old
/// entries, and the third pass meets those evictions. The seed jitters
/// the sizes around their quantiles; the order is fixed, so every seed
/// evicts alike.
fn store_replay(rng: &mut Rng, work: &Path) -> Result<Workload, String> {
    let mut pool = Vec::new();
    let mut fresh = Vec::new();
    for (family, t) in REPLAY {
        for (v, q) in POOL_QUANTILES.into_iter().enumerate() {
            let u = q + (rng.pair()[0] - 0.5) / 10.0;
            let job = kernels::draw(family, v, u, t);
            let mut next = job.clone();
            *next.params.last_mut().expect("every kernel has a size") += 1;
            next.label = format!("{}+1", job.label);
            pool.push(job);
            fresh.push(next);
        }
    }

    // Every set-up of a run gets its own store directory.
    static BUILDS: AtomicU32 = AtomicU32::new(0);
    let build = BUILDS.fetch_add(1, Ordering::Relaxed);
    let dir = work.join(format!("store-{}-{build}", std::process::id()));
    remove_dir(&dir)?;
    let unbounded = StoreAt {
        dir: dir.clone(),
        max_bytes: None,
    };
    let mut resident = 0;
    for job in &pool {
        dmc_polyhedra::cache::clear_thread_caches();
        let out = job::pipeline(job, Some(&unbounded))
            .map_err(|e| format!("{}: filling the store: {e}", job.label))?;
        resident = out.counts.store.bytes;
    }
    // The references are cold recomputes, with no store or session.
    let mut references = BTreeMap::new();
    for job in pool.iter().chain(&fresh) {
        dmc_polyhedra::cache::clear_thread_caches();
        let out = job::pipeline(job, None).map_err(|e| format!("{}: {e}", job.label))?;
        let schedule = dmc_polyhedra::codec::encode_to_vec(&out.schedule);
        references.insert(job.label.clone(), schedule);
    }
    if references.len() != pool.len() + fresh.len() {
        return Err("store-replay drew two identical requests".into());
    }
    let mut paths = Vec::new();
    list_files(&dir, &dir, &mut paths)?;
    let mut files = BTreeMap::new();
    for rel in paths {
        let path = dir.join(&rel);
        let bytes = fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        files.insert(rel, bytes);
    }

    let mut order = Vec::new();
    for pass in 0..REPEATS {
        for (job, next) in pool.iter().zip(&fresh) {
            order.push(job);
            if pass == 1 {
                order.push(next);
            }
        }
    }
    let slots = order
        .into_iter()
        .map(|job| Slot {
            expect: Expect::Schedule(references[&job.label].clone()),
            job: job.clone(),
            first: None,
        })
        .collect();
    Ok(Workload {
        slots,
        oracle_s: 0.0,
        store: Some(Disk {
            dir,
            max_bytes: resident + resident / 2,
            files,
        }),
    })
}

/// Appends the paths of all files under `dir`, relative to `root`.
fn list_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        if path.is_dir() {
            list_files(root, &path, out)?;
        } else {
            let rel = path.strip_prefix(root).map_err(|e| e.to_string())?;
            out.push(rel.to_path_buf());
        }
    }
    Ok(())
}

/// Writes `lu-plan`'s expected file: for every (N, P) the workload can
/// draw, the plan is first checked in values mode against the sequential
/// interpreter, then its timing-mode figures are recorded (and must equal
/// the values-mode figures).
pub fn write_expected(path: &Path) -> Result<(), String> {
    let mut text = String::from("N\tP\tmessages\ttransmissions\twords\tmakespan_s\n");
    for p in LU_P {
        for n in LU_N.0..=LU_N.1 {
            let mut checked = Slot {
                job: kernels::lu(n, p, Toggles::Full, true),
                expect: Expect::Memory(oracle(&kernels::lu(n, p, Toggles::Full, true))?),
                first: None,
            };
            let values = job::run(&mut checked, None, false).1?.quality;
            let mut timed = Slot {
                job: kernels::lu(n, p, Toggles::Full, false),
                expect: Expect::Stats(values),
                first: None,
            };
            let q = job::run(&mut timed, None, false).1?.quality;
            text.push_str(&format!(
                "{n}\t{p}\t{}\t{}\t{}\t{}\n",
                q.messages, q.transmissions, q.words, q.makespan
            ));
            eprintln!("N={n} P={p}: {q:?}");
        }
    }
    fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}
