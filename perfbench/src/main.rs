//! The benchmark harness: time to verdict on the registry, one check at
//! a time (`jobs = 1`, closed loop), with a probe-traced per-layer
//! breakdown.
//!
//! ```text
//! jaaru-perfbench <workload> --seconds S --trace 0|1
//! jaaru-perfbench <workload> --setup-only
//! ```
//!
//! Each check is: `ModelChecker::check`, render the report the way
//! `jaaru_cli` does (text, JSON, canonical JSON, SARIF, digest), and
//! compare the verdict with ground truth. `--trace 0` times every check
//! of the workload, repeatedly within the time budget, and scales each
//! sample by the [`yardstick`] timed around it; `--trace 1` pairs
//! an untraced pass with a probed one and reports per-layer counters and
//! timers. Per-check tables go to stdout; the last line is one JSON
//! object that `run.py` completes and re-prints.

mod probe;
mod yardstick;

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::time::Instant;

use jaaru::{CheckReport, Config, ModelChecker, NativeEnv, Program};
use jaaru_bench::registry::{
    lockfree_bug_cases, lockfree_fixed_cases, pmdk_bug_cases, pmdk_fixed_cases, recipe_bug_cases,
    recipe_fixed_cases, BugCase,
};
use probe::{Probe, Probed};

/// The CLI's pool size.
const POOL: usize = 1 << 18;
/// Native runs per program; the median is kept.
const NATIVE_REPEATS: usize = 5;
/// Yardstick runs taken on each side of a sample to scale it.
const YARDSTICK_WINDOW: usize = 8;
/// The paper's per-execution overhead (§5.2) and this reproduction's
/// earlier estimate, printed beside the measured ratio.
const PAPER_OVERHEAD_X: f64 = 736.0;
const ROADMAP_OVERHEAD_X: f64 = 25.0;

struct Case {
    name: String,
    program: Box<dyn Program + Sync>,
    /// Ground truth: a seeded bug row must not come back clean; a fixed
    /// program must come back clean and not truncated.
    expect_bug: bool,
}

struct Workload {
    cases: Vec<Case>,
    config: Config,
}

/// The CLI's bounds; every other knob keeps the library default. Prune
/// and snapshot settings are deliberately left alone.
fn cli_bounds() -> Config {
    let mut c = Config::new();
    c.pool_size(POOL)
        .max_ops_per_execution(40_000)
        .max_scenarios(20_000);
    c
}

fn fixed(keys: usize) -> Vec<Case> {
    recipe_fixed_cases(keys)
        .into_iter()
        .chain(pmdk_fixed_cases(keys))
        .chain(lockfree_fixed_cases())
        .map(|(name, program)| Case {
            name: name.to_string(),
            program,
            expect_bug: false,
        })
        .collect()
}

fn bug_rows(suite: &str, rows: Vec<BugCase>) -> impl Iterator<Item = Case> + '_ {
    rows.into_iter().map(move |c| Case {
        name: format!("{suite} #{} {}", c.id, c.benchmark),
        program: c.program,
        expect_bug: true,
    })
}

fn workload(name: &str) -> Option<Workload> {
    let mut config = cli_bounds();
    let cases = match name {
        "fixed-d1" => fixed(16),
        "fixed-d3" => {
            config.max_failures(3);
            fixed(1)
        }
        "bugs-lint" => {
            // The `jaaru_cli lint` configuration.
            config
                .lints(true)
                .lint_cross_thread(true)
                .lint_torn_stores(true)
                .lint_flush_redundancy(true);
            bug_rows("recipe", recipe_bug_cases(5))
                .chain(bug_rows("pmdk", pmdk_bug_cases(5)))
                .chain(bug_rows("lockfree", lockfree_bug_cases()))
                .collect()
        }
        _ => return None,
    };
    Some(Workload { cases, config })
}

/// What one check leaves behind for the pass-level metrics and the
/// repeat and fidelity gates.
struct Check {
    check_s: f64,
    render_s: f64,
    bytes: usize,
    ok: bool,
    verdict: &'static str,
    /// Hashes of `digest()`, `lint_digest()` and `to_canonical_json()`.
    artifacts: [u64; 3],
    exploration: u64,
    /// Deterministic counters, in [`COUNTERS`] order.
    counters: [u64; COUNTERS.len()],
    diagnostics: u64,
    errors: u64,
}

/// The explorer and snapshot counters read from each report.
const COUNTERS: [&str; 13] = [
    "explorer.scenarios",
    "explorer.jexec",
    "explorer.fpoints",
    "explorer.runs",
    "explorer.restored",
    "explorer.load_choice_points",
    "explorer.max_rf_set",
    "explorer.truncated",
    "snapshot.hits",
    "snapshot.misses",
    "snapshot.inserts",
    "snapshot.evictions",
    "snapshot.peak_bytes",
];

fn hash(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// Renders the report the way `jaaru_cli` does, in every format it
/// offers.
fn render(name: &str, report: &CheckReport) -> [String; 5] {
    let mut text = format!("== {name} ==\n{report}\n");
    for race in &report.races {
        let _ = writeln!(text, "{race}");
    }
    for d in &report.diagnostics {
        let _ = writeln!(text, "{d}");
    }
    let _ = writeln!(text, "VERDICT: {}", verdict(report));
    [
        text,
        report.to_json(),
        report.to_canonical_json(),
        jaaru::to_sarif(&report.diagnostics, env!("CARGO_PKG_VERSION")),
        report.digest(),
    ]
}

fn verdict(report: &CheckReport) -> &'static str {
    if report.has_errors() {
        "robustness diagnostics"
    } else if report.is_clean() {
        "crash consistent"
    } else {
        "bugs found"
    }
}

fn run_check(config: &Config, case: &Case, program: &(dyn Program + Sync)) -> Check {
    let start = Instant::now();
    let report = ModelChecker::new(config.clone()).check(program);
    let check_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let rendered = black_box(render(&case.name, &report));
    let render_s = start.elapsed().as_secs_f64();

    let clean = report.is_clean() && !report.has_errors();
    let ok = if case.expect_bug {
        !clean
    } else {
        clean && !report.truncated
    };
    let s = &report.stats;
    let snap = report.snapshots.unwrap_or_default();
    Check {
        check_s,
        render_s,
        bytes: rendered.iter().map(String::len).sum(),
        ok,
        verdict: if report.truncated && clean {
            "truncated, no verdict"
        } else {
            verdict(&report)
        },
        artifacts: [
            hash(&rendered[4]),
            hash(&report.lint_digest()),
            hash(&rendered[2]),
        ],
        exploration: hash(&report.exploration_digest()),
        counters: [
            s.scenarios,
            s.executions,
            s.failure_points,
            s.executions_replayed,
            s.executions_restored,
            s.load_choice_points,
            s.max_rf_set as u64,
            u64::from(report.truncated),
            snap.hits,
            snap.misses,
            snap.inserts,
            snap.evictions,
            snap.peak_bytes as u64,
        ],
        diagnostics: report.diagnostics.len() as u64,
        errors: report.diagnostics.iter().filter(|d| d.is_error()).count() as u64,
    }
}

struct Pass {
    pass_s: f64,
    checks: Vec<Check>,
}

/// One pass over the workload; with `probes`, each check runs through
/// its own probe.
fn run_pass(wl: &Workload, config: &Config, probes: Option<&[Probe]>) -> Pass {
    let start = Instant::now();
    let checks = wl
        .cases
        .iter()
        .enumerate()
        .map(|(i, case)| match probes {
            Some(probes) => {
                let probed = Probed {
                    inner: &*case.program,
                    probe: &probes[i],
                };
                run_check(config, case, &probed)
            }
            None => run_check(config, case, &*case.program),
        })
        .collect();
    Pass {
        pass_s: start.elapsed().as_secs_f64(),
        checks,
    }
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

/// Metrics by name: value and unit.
#[derive(Default)]
struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    fn count(&mut self, name: &str, value: u64) {
        self.put(name, value as f64, "count");
    }

    fn bytes(&mut self, name: &str, value: u64) {
        self.put(name, value as f64, "bytes");
    }

    /// The deterministic counters, for the repeat gate across runs.
    /// Rendered bytes are not among them: the JSON report carries the
    /// wall-clock duration.
    fn counts(&self) -> impl Iterator<Item = (&String, f64)> {
        self.0
            .iter()
            .filter(|(name, (_, unit))| {
                matches!(*unit, "count" | "bytes") && !name.starts_with("report.")
            })
            .map(|(name, (v, _))| (name, *v))
    }

    fn counts_json(&self) -> String {
        let fields: Vec<String> = self
            .counts()
            .map(|(name, v)| format!("\"{name}\": {}", num(v)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*value)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A JSON number with every digit the measurement has (`Display` of
/// `f64` round-trips and never uses an exponent).
fn num(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_string()
    }
}

/// Gates that turn a run's result incorrect, collected as messages.
#[derive(Default)]
struct Gates(Vec<String>);

impl Gates {
    /// A repeated check must reproduce the first one's artifacts and
    /// counters exactly.
    fn same(&mut self, name: &str, first: &Check, again: &Check, what: &str) {
        if first.artifacts != again.artifacts {
            self.0.push(format!(
                "{what}: {name} digest/lint_digest/canonical JSON differ"
            ));
        }
        for ((x, y), counter) in first.counters.iter().zip(&again.counters).zip(COUNTERS) {
            if x != y {
                self.0
                    .push(format!("{what}: {name} {counter} {x} vs {y} (unsteady)"));
            }
        }
    }

    fn repeat(&mut self, wl: &Workload, first: &Pass, pass: &Pass, what: &str) {
        for ((a, b), case) in first.checks.iter().zip(&pass.checks).zip(&wl.cases) {
            self.same(&case.name, a, b, what);
        }
    }
}

fn geomean(v: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = v.fold((0.0, 0usize), |(s, n), x| (s + x.ln(), n + 1));
    (sum / n as f64).exp()
}

fn print_table(wl: &Workload, pass: &Pass) {
    println!(
        "{:<26} {:>9} {:>8} {:>9} {:>8} {:>9}  verdict",
        "program", "check_s", "#JExec", "#FPoints", "runs", "restored"
    );
    for (case, c) in wl.cases.iter().zip(&pass.checks) {
        println!(
            "{:<26} {:>9.4} {:>8} {:>9} {:>8} {:>9}  {}{}",
            case.name,
            c.check_s,
            c.counters[1],
            c.counters[2],
            c.counters[3],
            c.counters[4],
            c.verdict,
            if c.ok {
                ""
            } else {
                "  [FAILED: disagrees with ground truth]"
            },
        );
    }
}

/// The samples of a `--trace 0` run, per check.
struct Sampler<'a> {
    wl: &'a Workload,
    /// Each check's first run, the reference for the repeat gate.
    first: Vec<Check>,
    first_pass_s: f64,
    last: Vec<f64>,
    spent: Vec<f64>,
    /// Each check's samples: seconds, and the number of yardstick runs
    /// before it.
    samples: Vec<Vec<(f64, usize)>>,
    /// Yardstick times, one after every sample and one at the start.
    yardsticks: Vec<f64>,
}

impl<'a> Sampler<'a> {
    fn new(wl: &'a Workload) -> Self {
        let n = wl.cases.len();
        Sampler {
            wl,
            first: Vec::with_capacity(n),
            first_pass_s: 0.0,
            last: vec![0.0; n],
            spent: vec![0.0; n],
            samples: vec![Vec::new(); n],
            yardsticks: vec![yardstick::time()],
        }
    }

    /// Runs check `i` once, end to end, then the yardstick. First runs
    /// happen in case order.
    fn sample(&mut self, i: usize, gates: &mut Gates) {
        let case = &self.wl.cases[i];
        let start = Instant::now();
        let check = run_check(&self.wl.config, case, &*case.program);
        let t = start.elapsed().as_secs_f64();
        self.samples[i].push((t, self.yardsticks.len()));
        self.yardsticks.push(yardstick::time());
        self.last[i] = t;
        self.spent[i] += t;
        match self.first.get(i) {
            Some(reference) => gates.same(&case.name, reference, &check, "repeat"),
            None => {
                self.first_pass_s += t;
                self.first.push(check);
            }
        }
    }

    /// Check `i`'s time: the median of its samples, each scaled by the
    /// median of the [`YARDSTICK_WINDOW`] yardstick runs on either side
    /// of it.
    fn time(&self, i: usize) -> f64 {
        let scaled = self.samples[i]
            .iter()
            .map(|&(t, before)| {
                let from = before.saturating_sub(YARDSTICK_WINDOW);
                let to = (before + YARDSTICK_WINDOW).min(self.yardsticks.len());
                t * yardstick::NOMINAL_S / median(self.yardsticks[from..to].to_vec())
            })
            .collect();
        median(scaled)
    }
}

/// `--trace 0`: samples of every check until the time budget is spent.
/// Each check runs once, in order. The rest of the budget goes, one
/// sample at a time, to whichever check has used the least time so far
/// and whose last time still fits in what is left, so short checks gain
/// samples spread over the whole run even where one long check fills
/// most of it.
///
/// A sample is one check end to end: check, render and verdict check,
/// scaled by the [`yardstick`] timed around it, which takes out the slow
/// spells of a shared host. A check's time is the median of its scaled
/// samples; `pass_s` is one full pass at those times.
fn untraced(wl: &Workload, seconds: f64, gates: &mut Gates, m: &mut Metrics) -> Pass {
    let start = Instant::now();
    let n = wl.cases.len();
    let mut s = Sampler::new(wl);
    for i in 0..n {
        s.sample(i, gates);
    }
    loop {
        let left = seconds - start.elapsed().as_secs_f64();
        let Some(i) = (0..n)
            .filter(|&i| s.last[i] <= left)
            .min_by(|&a, &b| s.spent[a].total_cmp(&s.spent[b]))
        else {
            break;
        };
        s.sample(i, gates);
    }

    let times: Vec<f64> = (0..n).map(|i| s.time(i)).collect();
    println!("{:<26} {:>8} {:>10}", "program", "samples", "check_s");
    for (case, (samples, t)) in wl.cases.iter().zip(s.samples.iter().zip(&times)) {
        println!("{:<26} {:>8} {t:>10.4}", case.name, samples.len());
    }
    let unscaled: f64 = s
        .samples
        .iter()
        .map(|v| median(v.iter().map(|&(t, _)| t).collect()))
        .sum();
    println!(
        "first pass {:.3} s; {:.3} s in all; unscaled pass_s {unscaled:.4} s; \
         yardstick median {:.4} ms over {} runs (nominal {:.4} ms)",
        s.first_pass_s,
        start.elapsed().as_secs_f64(),
        median(s.yardsticks.clone()) * 1e3,
        s.yardsticks.len(),
        yardstick::NOMINAL_S * 1e3,
    );
    m.put("pass_s", times.iter().sum(), "s");
    m.put("check_s.geomean", geomean(times.into_iter()), "s");
    Pass {
        pass_s: s.first_pass_s,
        checks: s.first,
    }
}

/// The explorer and snapshot counters of a pass, summed over its checks
/// (maxima for the largest-set and peak figures).
fn report_counters(pass: &Pass) -> Metrics {
    let mut m = Metrics::default();
    for (k, name) in COUNTERS.iter().enumerate() {
        let values = pass.checks.iter().map(|c| c.counters[k]);
        let v = match *name {
            "explorer.max_rf_set" | "snapshot.peak_bytes" => values.max().unwrap_or(0),
            _ => values.sum(),
        };
        if name.ends_with("bytes") {
            m.bytes(name, v);
        } else {
            m.count(name, v);
        }
    }
    m
}

/// Per-layer metrics of one probed pass, beside the untraced pass it is
/// paired with.
fn layers(plain: &Pass, traced: &Pass, probes: &[Probe]) -> Metrics {
    let mut m = report_counters(traced);
    let runs: u64 = traced.checks.iter().map(|c| c.counters[3]).sum();
    let restored: u64 = traced.checks.iter().map(|c| c.counters[4]).sum();
    m.put(
        "snapshot.restored_share",
        restored as f64 / (runs + restored).max(1) as f64,
        "ratio",
    );

    let check_s: f64 = traced.checks.iter().map(|c| c.check_s).sum();
    let sum = |f: &dyn Fn(&Probe) -> f64| probes.iter().map(f).sum::<f64>();
    let total = |f: &dyn Fn(&Probe) -> u64| probes.iter().map(f).sum::<u64>();
    let guest_s = sum(&|p| p.pre_failure.runs.secs() + p.recovery.runs.secs());
    let env_s = sum(&|p| p.pre_failure.env_secs() + p.recovery.env_secs());
    m.put("explorer.check_s", check_s, "s");
    m.put("explorer.self_s", check_s - guest_s, "s");

    m.count(
        "guest.pre_failure.runs",
        total(&|p| p.pre_failure.runs.calls()),
    );
    m.put(
        "guest.pre_failure.s",
        sum(&|p| p.pre_failure.runs.secs()),
        "s",
    );
    m.count("guest.recovery.runs", total(&|p| p.recovery.runs.calls()));
    m.put("guest.recovery.s", sum(&|p| p.recovery.runs.secs()), "s");
    m.put("guest.self_s", guest_s - env_s, "s");

    for (label, recovery) in [("pre_failure", false), ("recovery", true)] {
        m.count(
            &format!("env.{label}.loads"),
            total(&|p| p.phase(recovery).loads.calls()),
        );
        m.bytes(
            &format!("env.{label}.load_bytes"),
            total(&|p| p.phase(recovery).load_bytes()),
        );
        m.put(
            &format!("env.{label}.load_s"),
            sum(&|p| p.phase(recovery).loads.secs()),
            "s",
        );
    }
    m.put(
        "env.recovery.ns_per_load_byte",
        sum(&|p| p.recovery.loads.secs()) * 1e9 / total(&|p| p.recovery.load_bytes()).max(1) as f64,
        "ns/byte",
    );
    let both = |f: &dyn Fn(&probe::Phase) -> u64| total(&|p| f(&p.pre_failure) + f(&p.recovery));
    let both_s = |f: &dyn Fn(&probe::Phase) -> f64| sum(&|p| f(&p.pre_failure) + f(&p.recovery));
    m.count("env.stores", both(&|ph| ph.stores.calls()));
    m.put("env.store_s", both_s(&|ph| ph.stores.secs()), "s");
    m.count("env.flushes", both(&|ph| ph.flushes.calls()));
    m.count("env.fences", both(&|ph| ph.fences.calls()));
    m.count("env.rmws", both(&|ph| ph.rmws.calls()));
    m.put(
        "env.persist_s",
        both_s(&|ph| ph.flushes.secs() + ph.fences.secs() + ph.rmws.secs()),
        "s",
    );

    m.count(
        "lint.diagnostics",
        traced.checks.iter().map(|c| c.diagnostics).sum(),
    );
    m.count("lint.errors", traced.checks.iter().map(|c| c.errors).sum());
    m.put(
        "report.render_s",
        plain.checks.iter().map(|c| c.render_s).sum(),
        "s",
    );
    m.bytes(
        "report.bytes",
        plain.checks.iter().map(|c| c.bytes as u64).sum(),
    );
    m.put(
        "trace.overhead_ratio",
        traced.pass_s / plain.pass_s,
        "ratio",
    );
    m
}

/// `--trace 1`: untraced and probed passes in pairs until the time
/// budget is spent (at least one pair), then the lint and native
/// baselines.
fn traced(wl: &Workload, seconds: f64, gates: &mut Gates, m: &mut Metrics) -> Pass {
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut first_probes: Vec<Probe> = Vec::new();
    let mut per_pair: Vec<Metrics> = Vec::new();
    loop {
        let plain = run_pass(wl, &wl.config, None);
        let probes: Vec<Probe> = wl.cases.iter().map(|_| Probe::default()).collect();
        let probed = run_pass(wl, &wl.config, Some(&probes));
        let reference = passes.first().unwrap_or(&plain);
        gates.repeat(wl, reference, &plain, "repeat");
        gates.repeat(wl, reference, &probed, "probe fidelity");
        let layer = layers(&plain, &probed, &probes);
        if let Some(prev) = per_pair.first() {
            for (name, (v, unit)) in &layer.0 {
                if name.starts_with("env.") && *unit == "count" && prev.0[name].0 != *v {
                    gates
                        .0
                        .push(format!("{name} differs between probed passes (unsteady)"));
                }
            }
        } else {
            first_probes = probes;
        }
        per_pair.push(layer);
        passes.push(plain);
        let per = start.elapsed().as_secs_f64() / per_pair.len() as f64;
        if start.elapsed().as_secs_f64() + per > seconds {
            break;
        }
    }
    // Times are medians over pairs; counts are equal in every pair (the
    // gates above), so their median is the count.
    for (name, (_, unit)) in &per_pair[0].0 {
        m.put(
            name,
            median(per_pair.iter().map(|p| p.0[name].0).collect()),
            unit,
        );
    }
    let plain_check_s = |i: usize| median(passes.iter().map(|p| p.checks[i].check_s).collect());

    // lint.s: lints-on checks against paired lints-off checks that
    // explore exactly the same scenarios.
    let mut lint_s = 0.0;
    if wl.config.lints_value() {
        let mut off = wl.config.clone();
        off.lints(false)
            .lint_cross_thread(false)
            .lint_torn_stores(false)
            .lint_flush_redundancy(false);
        let bare = run_pass(wl, &off, None);
        for (i, (on, off)) in passes[0].checks.iter().zip(&bare.checks).enumerate() {
            if on.exploration != off.exploration {
                gates.0.push(format!(
                    "lint pairing: {} explores differently with lints off",
                    wl.cases[i].name
                ));
            }
            lint_s += plain_check_s(i) - off.check_s;
        }
    }
    m.put("lint.s", lint_s, "s");

    // §5.2 anchor: the fastest complete pre-failure run of each program
    // against the same program on the uninstrumented NativeEnv.
    let native = native(wl);
    let (mut full, mut base) = (0.0, 0.0);
    println!(
        "{:<26} {:>12} {:>12} {:>10}",
        "program", "native_s", "full_run_s", "overhead_x"
    );
    for ((case, probe), native_s) in wl.cases.iter().zip(&first_probes).zip(&native) {
        if let Some(run_s) = probe.full_run_secs() {
            full += run_s;
            base += native_s;
            println!(
                "{:<26} {:>12.7} {:>12.7} {:>10.1}",
                case.name,
                native_s,
                run_s,
                run_s / native_s
            );
        }
    }
    m.put("guest.native_s", native.iter().sum(), "s");
    m.put("guest.overhead_x", full / base, "x");
    println!(
        "guest.overhead_x = {:.1}x (paper §5.2: {PAPER_OVERHEAD_X}x; ROADMAP estimate: ~{ROADMAP_OVERHEAD_X}x)",
        full / base
    );
    println!("{} untraced/probed pair(s)", per_pair.len());
    passes.swap_remove(0)
}

/// Each program's run on the uninstrumented [`NativeEnv`], median of a
/// few.
fn native(wl: &Workload) -> Vec<f64> {
    wl.cases
        .iter()
        .map(|case| {
            median(
                (0..NATIVE_REPEATS)
                    .map(|_| {
                        let env = NativeEnv::new(POOL);
                        let start = Instant::now();
                        case.program.run(black_box(&env));
                        start.elapsed().as_secs_f64()
                    })
                    .collect(),
            )
        })
        .collect()
}

fn usage() -> ! {
    eprintln!(
        "usage: jaaru-perfbench fixed-d1|fixed-d3|bugs-lint \
         (--setup-only | --seconds S --trace 0|1)"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .map(|i| args.get(i + 1).unwrap_or_else(|| usage()).as_str())
    };
    let Some(wl) = args.first().and_then(|name| workload(name)) else {
        usage()
    };
    if args.iter().any(|a| a == "--setup-only") {
        // The first check could run now.
        black_box(&wl);
        println!("ready");
        return;
    }
    let seconds: f64 = flag("--seconds")
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| *s > 0.0)
        .unwrap_or_else(|| usage());
    let trace = match flag("--trace") {
        Some("0") => false,
        Some("1") => true,
        _ => usage(),
    };

    let mut gates = Gates::default();
    let mut m = Metrics::default();
    let first = if trace {
        traced(&wl, seconds, &mut gates, &mut m)
    } else {
        untraced(&wl, seconds, &mut gates, &mut m)
    };
    print_table(&wl, &first);

    // Counted over one pass, so a faster checker that fits more samples
    // into the budget does not count more failures; the repeat gate
    // holds every repeated check to the same verdict.
    let attempted = wl.cases.len();
    let failed = first.checks.iter().filter(|c| !c.ok).count();
    println!(
        "failed_ratio = {failed}/{attempted} = {:.4} (checks disagreeing with ground truth)",
        failed as f64 / attempted as f64
    );
    for g in &gates.0 {
        println!("GATE: {g}");
    }
    let counters = if trace {
        m.counts_json()
    } else {
        report_counters(&first).counts_json()
    };
    println!(
        "{{\"attempted\": {attempted}, \"failed\": {failed}, \"gates_ok\": {}, \"metrics\": {}, \"counters\": {counters}}}",
        gates.0.is_empty(),
        m.json()
    );
}
