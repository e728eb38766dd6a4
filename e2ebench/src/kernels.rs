//! The benchmark's input programs and the seeded draws that turn them
//! into jobs. Program text is declared here, not borrowed from the
//! repository's test or bench crates, so the benchmark exercises only the
//! compiler's public API.

use std::collections::{BTreeMap, HashMap};

use dmc_core::{Options, Strategy};
use dmc_decomp::{CompDecomp, DataDecomp, DimMap, ProcGrid};
use dmc_ir::Aff;

use crate::rng::at;

/// Figure 11: LU decomposition.
pub const LU: &str = "param N; array X[N + 1][N + 1];
for i1 = 0 to N {
  for i2 = i1 + 1 to N {
    X[i2][i1] = X[i2][i1] / X[i1][i1];
    for i3 = i1 + 1 to N {
      X[i2][i3] = X[i2][i3] - X[i2][i1] * X[i1][i3];
    }
  }
}";

/// Figure 2: a carried shift by three.
pub const FIGURE2: &str = "param T, N; array X[N + 1];
for t = 0 to T { for i = 3 to N { X[i] = X[i - 3]; } }";

/// Figure 8: a uniformly generated group of four reads.
pub const FIGURE8: &str = "param T, N; array X[N + 1];
for t = 0 to T { for i = 3 to N { X[i] = f(X[i], X[i - 1], X[i - 2], X[i - 3]); } }";

/// The 3-point relaxation stencil.
pub const STENCIL: &str = "param T, N; array X[N + 1];
for t = 0 to T {
  for i = 1 to N - 1 {
    X[i] = 0.25 * (X[i] + X[i - 1] + X[i + 1]);
  }
}";

/// §2.2's X/Y example (value-centric transfers each value once).
pub const XY: &str = "param N; array X[N + 2]; array Y[N + 2];
for i = 0 to N {
  X[i] = 1.5;
  for j = 1 to N {
    Y[j] = Y[j] + X[j - 1];
  }
}";

/// A 2-D shift on a 2-D processor grid.
pub const TWO_D: &str = "param N; array A[N + 1][N + 1]; array B[N + 1][N + 1];
for i = 0 to N {
  for j = 1 to N {
    B[i][j] = A[i][j - 1] + 1.0;
  }
}";

/// Transpose-style reads: a many-to-many redistribution.
pub const TRANSPOSE: &str = "param N; array A[N][N]; array B[N][N];
for i = 0 to N - 1 {
  for j = 0 to N - 1 {
    B[i][j] = A[j][i] * 2.0;
  }
}";

/// Triangular forward substitution: a pipeline along the diagonal.
pub const TRIANGULAR: &str = "param N; array L[N][N]; array Y[N];
for i = 1 to N - 1 {
  for j = 0 to i - 1 {
    Y[i] = Y[i] - L[i][j] * Y[j];
  }
}";

/// The §2.2.2 privatizable work array.
pub const PRIVATIZATION: &str = "param N, M; array work[M + 1]; array out[N + 1][M + 1];
for i = 0 to N {
  for j = 0 to M { work[j] = 2.0; }
  for j2 = 0 to M { out[i][j2] = work[j2] + 1.0; }
}";

/// A §6 optimization toggle set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Toggles {
    /// Every §6 optimization on.
    Full,
    /// Full, except one message per element (§6.2 off).
    NoAggregate,
    /// The §2 location-centric baseline.
    LocationCentric,
    /// Every §6 optimization off.
    Naive,
}

impl Toggles {
    pub const ALL: [Toggles; 4] = [
        Toggles::Full,
        Toggles::NoAggregate,
        Toggles::LocationCentric,
        Toggles::Naive,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Toggles::Full => "full",
            Toggles::NoAggregate => "no-aggregate",
            Toggles::LocationCentric => "location-centric",
            Toggles::Naive => "naive",
        }
    }

    /// The compiler options, always with one analysis thread so the
    /// numbers measure the compiler rather than the host's scheduler.
    pub fn options(self) -> Options {
        let base = match self {
            Toggles::Full => Options::full(),
            Toggles::NoAggregate => Options {
                aggregate: false,
                ..Options::full()
            },
            Toggles::LocationCentric => Options {
                strategy: Strategy::LocationCentric,
                ..Options::full()
            },
            Toggles::Naive => Options::naive(),
        };
        Options { threads: 1, ..base }
    }
}

/// One request: everything the compiler receives, starting from program
/// text.
#[derive(Clone, Debug)]
pub struct Job {
    /// Human-readable identity, unique within a workload's pool.
    pub label: String,
    pub source: &'static str,
    pub comps: BTreeMap<usize, CompDecomp>,
    pub initial: HashMap<String, DataDecomp>,
    pub grid: ProcGrid,
    pub params: Vec<i128>,
    pub options: Options,
    /// Values mode (payloads carried, final memory checked) or timing mode.
    pub values: bool,
}

impl Job {
    fn new(family: &str, source: &'static str, toggles: Toggles, params: Vec<i128>) -> Job {
        Job {
            label: format!("{family}/{}/{params:?}", toggles.name()),
            source,
            comps: BTreeMap::new(),
            initial: HashMap::new(),
            grid: ProcGrid::line(1),
            params,
            options: toggles.options(),
            values: true,
        }
    }

    fn on(mut self, grid: ProcGrid) -> Job {
        self.label = format!("{}/P{:?}", self.label, grid.extents());
        self.grid = grid;
        self
    }

    fn comp(mut self, stmt: usize, c: CompDecomp) -> Job {
        self.comps.insert(stmt, c);
        self
    }

    fn data(mut self, d: DataDecomp) -> Job {
        self.label = format!("{}/{}{:?}", self.label, d.array, block_sizes(&d.maps));
        self.initial.insert(d.array.clone(), d);
        self
    }
}

fn block_sizes(maps: &[DimMap]) -> Vec<i128> {
    maps.iter().map(|m| m.block).collect()
}

/// The paper's §7 LU job: cyclic rows on a line of `p` processors.
pub fn lu(n: i128, p: i128, toggles: Toggles, values: bool) -> Job {
    let mut job = Job::new("lu", LU, toggles, vec![n])
        .comp(0, CompDecomp::cyclic_1d(0, "i2"))
        .comp(1, CompDecomp::cyclic_1d(1, "i2"))
        .data(DataDecomp::cyclic_1d("X", 2, 0))
        .on(ProcGrid::line(p));
    job.values = values;
    job
}

/// A 1-D kernel over `X[N + 1]` with loop variable `i`: the same block
/// size for the computation and the live-in data.
fn one_d(family: &str, src: &'static str, t: Toggles, params: Vec<i128>, b: i128, p: i128) -> Job {
    Job::new(family, src, t, params)
        .comp(0, CompDecomp::block_1d(0, "i", b))
        .data(DataDecomp::block_1d("X", 1, 0, b))
        .on(ProcGrid::line(p))
}

/// The kernel families of `kernels-checked`.
pub const FAMILIES: [&str; 11] = [
    "figure2",
    "figure8",
    "stencil",
    "stencil-mid",
    "shift-fold",
    "xy",
    "lu",
    "two-d",
    "transpose",
    "triangular",
    "privatization",
];

/// The toggle sets under which a family's values-mode result matches the
/// sequential interpreter at the commit that defined this benchmark. Two
/// defects found there are left out of `kernels-checked` (see README.md):
/// `xy` mismatches under every toggle set, and the location-centric
/// strategy mismatches on every family with a carried dependence.
pub fn checked_toggles(family: &str) -> &'static [Toggles] {
    const NO_LC: [Toggles; 3] = [Toggles::Full, Toggles::NoAggregate, Toggles::Naive];
    match family {
        "xy" => &[],
        "two-d" | "transpose" | "privatization" => &Toggles::ALL,
        _ => &NO_LC,
    }
}

/// Job `v` of `family` under toggle set `t`. Discrete choices (block
/// size, grid) cycle with `v`, so every seed covers the same ones; sizes
/// grow with the seeded quantile `u`.
pub fn draw(family: &str, v: usize, u: f64, t: Toggles) -> Job {
    let alt = |a: i128, b: i128| [a, b][v % 2];
    match family {
        "figure2" | "figure8" | "stencil" => {
            let src = match family {
                "figure2" => FIGURE2,
                "figure8" => FIGURE8,
                _ => STENCIL,
            };
            let p = [2, 4][v / 2 % 2];
            let params = vec![at(u, 2, 3), at(u, 40, 56)];
            one_d(family, src, t, params, alt(8, 16), p)
        }
        "stencil-mid" => {
            // Large enough that simulating the values carries real weight.
            let n = at(u, 1535, 2047);
            let params = vec![at(u, 8, 16), n];
            one_d(family, STENCIL, t, params, (n + 8) / 8, 8)
        }
        "shift-fold" => {
            // Blocks of three folded onto two physical processors.
            let params = vec![0, at(u, 18, 30)];
            one_d(family, FIGURE2, t, params, 3, 2)
        }
        "xy" => {
            let b = 4;
            Job::new(family, XY, t, vec![at(u, 12, 20)])
                .comp(0, CompDecomp::block_1d(0, "i", b))
                .comp(1, CompDecomp::block_1d(1, "j", b))
                .data(DataDecomp::block_1d("X", 1, 0, b))
                .data(DataDecomp::block_1d("Y", 1, 0, b))
                .on(ProcGrid::line(alt(2, 4)))
        }
        "lu" => lu(at(u, 10, 16), alt(2, 4), t, true),
        "two-d" => {
            let b = alt(4, 8);
            let maps = |x: &str, y: &str| {
                vec![DimMap::block(Aff::var(x), b), DimMap::block(Aff::var(y), b)]
            };
            Job::new(family, TWO_D, t, vec![at(u, 11, 17)])
                .comp(0, CompDecomp::from_maps(0, maps("i", "j")))
                .data(DataDecomp::from_maps("A", 2, maps("a0", "a1")))
                .data(DataDecomp::from_maps("B", 2, maps("a0", "a1")))
                .on(ProcGrid::new(vec![2, 2]))
        }
        "transpose" => {
            let b = 4;
            Job::new(family, TRANSPOSE, t, vec![at(u, 8, 14)])
                .comp(0, CompDecomp::block_1d(0, "i", b))
                .data(DataDecomp::block_1d("A", 2, 0, b))
                .data(DataDecomp::block_1d("B", 2, 0, b))
                .on(ProcGrid::line(alt(2, 3)))
        }
        "triangular" => {
            let b = 4;
            Job::new(family, TRIANGULAR, t, vec![at(u, 8, 14)])
                .comp(0, CompDecomp::block_1d(0, "i", b))
                .data(DataDecomp::block_1d("L", 2, 0, b))
                .data(DataDecomp::block_1d("Y", 1, 0, b))
                .on(ProcGrid::line(alt(2, 3)))
        }
        "privatization" => {
            let b = 4;
            Job::new(family, PRIVATIZATION, t, vec![at(u, 4, 8), at(u, 8, 12)])
                .comp(0, CompDecomp::block_1d(0, "j", b))
                .comp(1, CompDecomp::block_1d(1, "j2", b))
                .data(DataDecomp::block_1d("work", 1, 0, b))
                .data(DataDecomp::block_1d("out", 2, 1, b))
                .on(ProcGrid::line(3))
        }
        other => unreachable!("unknown kernel family {other}"),
    }
}
