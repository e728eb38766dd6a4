//! The benchmark's span recorder. Spans are opened around each call the
//! benchmark makes into a layer of the compiler, kept in memory, and
//! written out when the run ends. When recording is off, opening a span
//! costs one thread-local flag read.
//!
//! A layer's self time is its span's duration minus the durations of its
//! direct children. Spans nest strictly on the one benchmark thread, so
//! the self times of all spans under a job root add up to the root's
//! duration exactly; the root's own self time is the job's
//! `(unaccounted)` residue.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The name of every job's root span.
pub const JOB: &str = "job";
/// The name of every probe root span (direct layer calls made after a
/// job, outside its wall time).
pub const PROBE: &str = "probe";

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u64,
}

struct Recorder {
    on: bool,
    epoch: Instant,
    job: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        job: 0,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns recording on or off for the calling thread.
pub fn set_recording(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

/// Sets the job id stamped on spans opened from now on.
pub fn set_job(job: u64) {
    REC.with(|r| r.borrow_mut().job = job);
}

/// Closes its span when dropped.
pub struct Guard(Option<usize>);

/// Opens a span named `name`, child of the innermost open span.
pub fn enter(name: &'static str) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return Guard(None);
        }
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        let id = r.spans.len();
        let span = Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: r.open.last().copied(),
            job: r.job,
        };
        r.spans.push(span);
        r.open.push(id);
        Guard(Some(id))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(id) = self.0 {
            REC.with(|r| {
                let mut r = r.borrow_mut();
                let end = r.epoch.elapsed().as_nanos() as u64;
                r.spans[id].end_ns = end;
                let top = r.open.pop();
                debug_assert_eq!(top, Some(id), "spans close in LIFO order");
            });
        }
    }
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Per-name totals over a set of spans. Spans under a `job` root tile
/// the job's wall time; spans under any other root (checks, probes) are
/// kept apart in `outside_ns`.
#[derive(Default, Debug)]
pub struct Tiling {
    /// Self nanoseconds per layer under job roots (`job` itself = the
    /// unaccounted residue).
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Self nanoseconds per span name outside job roots.
    pub outside_ns: BTreeMap<&'static str, u64>,
    /// Spans per name, anywhere.
    pub count: BTreeMap<&'static str, u64>,
    /// Σ job root durations.
    pub job_wall_ns: u64,
    /// Jobs seen.
    pub jobs: u64,
}

impl Tiling {
    /// Self milliseconds of a layer, inside or outside jobs.
    pub fn ms(&self, name: &str) -> f64 {
        let ns = self.self_ns.get(name).or_else(|| self.outside_ns.get(name));
        ns.copied().unwrap_or(0) as f64 / 1e6
    }

    pub fn count(&self, name: &str) -> u64 {
        self.count.get(name).copied().unwrap_or(0)
    }

    /// A layer's self time as a share of the summed job wall time.
    pub fn share(&self, name: &str) -> f64 {
        let ns = self.self_ns.get(name).copied().unwrap_or(0);
        if self.job_wall_ns == 0 {
            0.0
        } else {
            ns as f64 / self.job_wall_ns as f64
        }
    }

    /// The table printed with a traced run, in milliseconds per `per`
    /// (rounds): one row per layer under the job roots, then the residue
    /// as an explicit `(unaccounted)` row. Rows sum to the job wall time.
    pub fn table(&self, per: f64) -> String {
        let mut out = String::new();
        let row = |out: &mut String, name: &str, ns: u64, share: f64, n: f64| {
            let _ = writeln!(
                out,
                "{name:<22} {:>12.3} {:>7.2}% {n:>10.1}",
                ns as f64 / 1e6 / per,
                100.0 * share,
            );
        };
        let _ = writeln!(
            out,
            "{:<22} {:>12} {:>8} {:>10}",
            "layer", "self ms", "share", "spans"
        );
        for (name, ns) in self.self_ns.iter().filter(|(n, _)| **n != JOB) {
            row(
                &mut out,
                name,
                *ns,
                self.share(name),
                self.count(name) as f64 / per,
            );
        }
        let residue = self.self_ns.get(JOB).copied().unwrap_or(0);
        row(&mut out, "(unaccounted)", residue, self.share(JOB), 0.0);
        row(
            &mut out,
            "job wall",
            self.job_wall_ns,
            1.0,
            self.jobs as f64 / per,
        );
        out
    }
}

/// Computes self times over the spans of the jobs `keep` selects, and
/// checks the tiling: every child lies inside its parent, and per root
/// the self times of all spans under it add up to its duration. Returns
/// the totals, or the first violated condition.
pub fn tile(spans: &[Span], keep: impl Fn(u64) -> bool) -> Result<Tiling, String> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut root_of = vec![0usize; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        match s.parent {
            Some(p) => {
                let ps = &spans[p];
                if p >= i || s.start_ns < ps.start_ns || s.end_ns > ps.end_ns {
                    return Err(format!(
                        "span {i} ({}) escapes parent {p} ({})",
                        s.name, ps.name
                    ));
                }
                child_ns[p] += s.end_ns - s.start_ns;
                root_of[i] = root_of[p];
            }
            None => root_of[i] = i,
        }
    }
    let mut t = Tiling::default();
    let mut tiled = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| keep(s.job)) {
        let dur = s.end_ns - s.start_ns;
        let own = dur
            .checked_sub(child_ns[i])
            .ok_or_else(|| format!("children of span {i} ({}) overlap", s.name))?;
        let in_job = spans[root_of[i]].name == JOB;
        let map = if in_job {
            &mut t.self_ns
        } else {
            &mut t.outside_ns
        };
        *map.entry(s.name).or_default() += own;
        *t.count.entry(s.name).or_default() += 1;
        tiled[root_of[i]] += own;
        if s.parent.is_none() && in_job {
            t.job_wall_ns += dur;
            t.jobs += 1;
        }
    }
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| keep(s.job)) {
        if s.parent.is_none() && tiled[i] != s.end_ns - s.start_ns {
            return Err(format!("root span {i} ({}) does not tile", s.name));
        }
    }
    Ok(t)
}

/// Writes spans as tab-separated rows: job, id, parent, name, start, end.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("job\tid\tparent\tname\tstart_ns\tend_ns\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
        let _ = writeln!(
            out,
            "{}\t{i}\t{parent}\t{}\t{}\t{}",
            s.job, s.name, s.start_ns, s.end_ns
        );
    }
    out
}
