//! One job: a closed-loop request driven through the compiler's public
//! API, `source text → parse → compile → SPMD codegen → plan → simulate +
//! critical path`, then checked. Every call into a layer runs inside a
//! span named after the layer.

use std::collections::HashMap;
use std::path::PathBuf;

use dmc_core::{CompileInput, Compiled, Session, StoreStats};
use dmc_ir::interp::Memory;
use dmc_machine::{critpath, simulate, InitialPlacement, MachineConfig, Schedule};
use dmc_polyhedra::PolyStats;

use crate::kernels::Job;
use crate::spans::{self, enter};
use crate::store::Timed;

/// Per-set element limit for planning and enumeration, far above any
/// job's needs: exceeding it is a failure, never a truncation.
pub const LIMIT: usize = 50_000_000;

/// The generated code's quality: the paper's own metrics, deterministic
/// for a given job.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quality {
    pub messages: u64,
    pub transmissions: u64,
    pub words: u64,
    /// Simulated iPSC/860 run time, seconds.
    pub makespan: f64,
}

impl Quality {
    fn same(&self, o: &Quality) -> bool {
        self.messages == o.messages
            && self.transmissions == o.transmissions
            && self.words == o.words
            && self.makespan.to_bits() == o.makespan.to_bits()
    }
}

/// What a job's outputs are checked against.
pub enum Expect {
    /// Message, word and makespan figures from the expected file.
    Stats(Quality),
    /// The sequential interpreter's final memory.
    Memory(Memory),
    /// The encoded schedule of a cold recompute of the same request.
    Schedule(Vec<u8>),
}

/// A job, its expected outputs and (once run) its first outcome's quality,
/// which every later repetition must reproduce exactly.
pub struct Slot {
    pub job: Job,
    pub expect: Expect,
    pub first: Option<Quality>,
}

/// Exact per-job counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub poly: PolyStats,
    pub events: u64,
    pub transmissions: u64,
    pub spmd_bytes: u64,
    pub lwt_calls: u64,
    pub comm_sets: u64,
    pub points: u64,
    pub store: StoreStats,
    pub stage_hits: u64,
    pub stage_misses: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        let p = &mut self.poly;
        let q = &o.poly;
        p.fm_steps += q.fm_steps;
        p.feasibility_calls += q.feasibility_calls;
        p.bnb_nodes += q.bnb_nodes;
        p.feas_cache_hits += q.feas_cache_hits;
        p.feas_cache_misses += q.feas_cache_misses;
        self.events += o.events;
        self.transmissions += o.transmissions;
        self.spmd_bytes += o.spmd_bytes;
        self.lwt_calls += o.lwt_calls;
        self.comm_sets += o.comm_sets;
        self.points += o.points;
        let s = &mut self.store;
        s.hits += o.store.hits;
        s.misses += o.store.misses;
        s.corrupt += o.store.corrupt;
        s.evictions += o.store.evictions;
        s.bytes_read += o.store.bytes_read;
        s.bytes_written += o.store.bytes_written;
        self.stage_hits += o.stage_hits;
        self.stage_misses += o.stage_misses;
    }
}

/// A finished, checked job.
pub struct Done {
    pub quality: Quality,
    pub counts: Counts,
}

/// Where a store-replay job's persistent store lives.
pub struct StoreAt {
    pub dir: PathBuf,
    /// The store's byte bound; `None` is unbounded.
    pub max_bytes: Option<u64>,
}

/// What a job's pipeline produced.
pub struct Outputs {
    compiled: Compiled,
    pub schedule: Schedule,
    memory: Option<Memory>,
    quality: Quality,
    pub counts: Counts,
}

/// Runs the job's pipeline inside a `job` span.
pub fn pipeline(job: &Job, store: Option<&StoreAt>) -> Result<Outputs, String> {
    let _root = enter(spans::JOB);
    let before = dmc_polyhedra::stats::snapshot();
    let mut session = match store {
        Some(at) => {
            let _s = enter("store.open");
            let disk = dmc_store::DiskStore::open(&at.dir, at.max_bytes)
                .map_err(|e| format!("opening the store: {e}"))?;
            let mut s = Session::new();
            s.attach_store(Box::new(Timed(disk)));
            Some(s)
        }
        None => None,
    };
    let program = {
        let _s = enter("ir.parse");
        match session.as_mut() {
            Some(s) => s.parse(job.source),
            None => dmc_ir::parse(job.source),
        }
        .map_err(|e| format!("parse: {e}"))?
    };
    let input = CompileInput {
        program,
        comps: job.comps.clone(),
        initial: job.initial.clone(),
        grid: job.grid.clone(),
    };
    let compiled = {
        let _s = enter("core.compile");
        match session.as_mut() {
            Some(s) => s.compile(input, job.options),
            None => dmc_core::compile(input, job.options),
        }
        .map_err(|e| format!("compile: {e}"))?
    };
    let spmd_bytes = {
        let _s = enter("codegen");
        spmd_text(&compiled)?.len() as u64
    };
    let schedule = {
        let _s = enter("core.plan");
        match session.as_mut() {
            Some(s) => s.build_schedule(&compiled, &job.params, job.values, LIMIT),
            None => dmc_core::build_schedule(&compiled, &job.params, job.values, LIMIT),
        }
        .map_err(|e| format!("plan: {e}"))?
    };
    let config = MachineConfig::ipsc860();
    let sim = {
        let _s = enter("machine.sim");
        let program = &compiled.input.program;
        let params: HashMap<String, i128> = program
            .params
            .iter()
            .cloned()
            .zip(job.params.iter().copied())
            .collect();
        let placement = if job.initial.is_empty() {
            InitialPlacement::Replicated
        } else {
            InitialPlacement::Owned(job.initial.clone())
        };
        simulate(
            program, &params, &job.grid, &schedule, &config, &placement, job.values,
        )
        .map_err(|e| format!("simulate: {e}"))?
    };
    let crit = {
        let _s = enter("machine.critpath");
        critpath::analyze(&schedule, &config).map_err(|e| format!("critical path: {e}"))?
    };
    let quality = Quality {
        messages: sim.stats.messages,
        transmissions: sim.stats.transmissions,
        words: sim.stats.words,
        makespan: sim.stats.time,
    };
    let mut counts = Counts {
        poly: dmc_polyhedra::stats::snapshot().since(&before),
        events: crit.events.len() as u64,
        transmissions: sim.stats.transmissions,
        spmd_bytes,
        ..Counts::default()
    };
    if let Some(s) = &session {
        counts.stage_hits = s.stats().stage_hits;
        counts.stage_misses = s.stats().stage_misses;
        counts.store = s.store_stats().unwrap_or_default();
    }
    Ok(Outputs {
        compiled,
        schedule,
        memory: sim.memory,
        quality,
        counts,
    })
}

/// The generated SPMD program text: the computation nest of every
/// statement, then the send and receive code of every final
/// communication set (aggregated when §6.2 is on).
fn spmd_text(compiled: &Compiled) -> Result<String, String> {
    let program = &compiled.input.program;
    let mut text = String::new();
    for info in program.statements() {
        let comp = compiled
            .input
            .comps
            .get(&info.id)
            .ok_or("missing decomposition")?;
        let code = dmc_codegen::computation_code(program, &info, comp)
            .map_err(|e| format!("codegen: {e}"))?;
        text.push_str(&dmc_codegen::render(&code));
    }
    for (k, cs) in compiled.comm.iter().enumerate() {
        let (send, recv) = if compiled.options.aggregate {
            (
                dmc_codegen::send_code_aggregated(cs, k),
                dmc_codegen::recv_code_aggregated(cs, k),
            )
        } else {
            (dmc_codegen::send_code(cs, k), dmc_codegen::recv_code(cs, k))
        };
        let send = send.map_err(|e| format!("codegen: {e}"))?;
        let recv = recv.map_err(|e| format!("codegen: {e}"))?;
        text.push_str(&dmc_codegen::render(&send));
        text.push_str(&dmc_codegen::render(&recv));
    }
    Ok(text)
}

/// Runs one slot and checks it. Returns the job's wall seconds (the
/// pipeline only: the check and probes run after it) and its outcome.
pub fn run(slot: &mut Slot, store: Option<&StoreAt>, traced: bool) -> (f64, Result<Done, String>) {
    // Each job models a fresh compiler process: the polyhedral engine's
    // per-thread memo caches start empty, so a job's work does not
    // depend on which jobs ran before it.
    dmc_polyhedra::cache::clear_thread_caches();
    let t0 = std::time::Instant::now();
    let out = pipeline(&slot.job, store);
    let wall = t0.elapsed().as_secs_f64();
    let result = out.and_then(|mut out| {
        {
            let _c = enter("bench.check");
            check(slot, &out)?;
        }
        if traced {
            probe(&slot.job, &out.compiled, &mut out.counts)?;
        }
        Ok(Done {
            quality: out.quality,
            counts: out.counts,
        })
    });
    (wall, result)
}

fn check(slot: &mut Slot, out: &Outputs) -> Result<(), String> {
    match &slot.expect {
        Expect::Stats(want) => {
            if !want.same(&out.quality) {
                return Err(format!("stats {:?}, expected {want:?}", out.quality));
            }
        }
        Expect::Memory(want) => {
            let got = out
                .memory
                .as_ref()
                .ok_or("no final memory in values mode")?;
            memory_matches(got, want)?;
        }
        Expect::Schedule(want) => {
            let got = dmc_polyhedra::codec::encode_to_vec(&out.schedule);
            if &got != want {
                return Err("schedule differs from a cold recompute".into());
            }
            if out.counts.store.corrupt != 0 {
                return Err(format!(
                    "{} corrupt store entries",
                    out.counts.store.corrupt
                ));
            }
        }
    }
    match slot.first {
        Some(first) if !first.same(&out.quality) => Err(format!(
            "stats {:?} differ from the first run's {first:?}",
            out.quality
        )),
        Some(_) => Ok(()),
        None => {
            slot.first = Some(out.quality);
            Ok(())
        }
    }
}

/// Final memory equality with the sequential oracle, compared as the
/// repository's kernel tests compare it: equal, both NaN, or within
/// 1e-12.
pub fn memory_matches(got: &Memory, want: &Memory) -> Result<(), String> {
    for (name, store) in want.iter() {
        let mine = got
            .array(name)
            .ok_or_else(|| format!("array {name} missing"))?;
        let (a, b) = (mine.as_slice(), store.as_slice());
        if a.len() != b.len() {
            return Err(format!(
                "array {name}: {} elements, expected {}",
                a.len(),
                b.len()
            ));
        }
        for (k, (x, y)) in a.iter().zip(b).enumerate() {
            let same = x == y || (x.is_nan() && y.is_nan()) || (x - y).abs() < 1e-12;
            if !same {
                return Err(format!("array {name} flat {k}: {x} vs {y}"));
            }
        }
    }
    Ok(())
}

/// Direct layer calls made after a traced job, outside its wall time:
/// one Last Write Tree per read (value-centric jobs, whose compile builds
/// them) and one enumeration of every final communication set. The
/// polyhedral memo caches are cleared before each call, so each starts
/// from empty caches as the job did, rather than re-running on the caches
/// the job just filled.
fn probe(job: &Job, compiled: &Compiled, counts: &mut Counts) -> Result<(), String> {
    let _p = enter(spans::PROBE);
    let program = &compiled.input.program;
    if job.options.strategy == dmc_core::Strategy::ValueCentric {
        for info in program.statements() {
            for read_no in 0..info.stmt.rhs.reads().len() {
                dmc_polyhedra::cache::clear_thread_caches();
                let _s = enter("dataflow.lwt");
                dmc_dataflow::build_lwt(program, info.id, read_no)
                    .map_err(|e| format!("lwt probe: {e}"))?;
                counts.lwt_calls += 1;
            }
        }
    }
    for cs in &compiled.comm {
        dmc_polyhedra::cache::clear_thread_caches();
        let _s = enter("commgen.enumerate");
        let elems = cs
            .enumerate(&job.params, LIMIT)
            .map_err(|e| format!("enumeration probe: {e}"))?
            .ok_or("enumeration probe exceeded its limit")?;
        counts.comm_sets += 1;
        counts.points += elems.len() as u64;
    }
    Ok(())
}
