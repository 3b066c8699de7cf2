//! The tracing probe: a [`Program`] wrapper that times every guest run
//! and a [`PmEnv`] wrapper that counts and times every PM operation at
//! the trait boundary (per call, never per byte).
//!
//! The probe must not change what the checker sees:
//!
//! * every required `PmEnv` method is forwarded, `spawn` included, whose
//!   child env is wrapped in turn;
//! * each method calls the inner env directly in its own body (never
//!   inside a closure), so `#[track_caller]` sites reach the checker as
//!   the guest's call sites;
//! * nothing catches an unwind — the checker's crash signal must
//!   propagate — so spans close in `Drop`.
//!
//! Counters are atomics, so the probed program is `Sync` without any
//! `unsafe impl`. They publish no other data, hence `Relaxed`.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use jaaru::{PmAddr, PmEnv, Program};

/// Calls made and nanoseconds spent in one kind of operation.
#[derive(Default)]
pub struct Tally {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl Tally {
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    pub fn secs(&self) -> f64 {
        self.nanos.load(Relaxed) as f64 * 1e-9
    }

    fn span(&self) -> Span<'_> {
        self.calls.fetch_add(1, Relaxed);
        Span {
            tally: self,
            start: Instant::now(),
        }
    }
}

/// Closes in `Drop`, so a call that unwinds (crash, guest bug) is still
/// timed.
struct Span<'a> {
    tally: &'a Tally,
    start: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.tally.nanos.fetch_add(ns, Relaxed);
    }
}

/// Counters of one execution phase: the pre-failure run or recovery.
#[derive(Default)]
pub struct Phase {
    pub runs: Tally,
    pub loads: Tally,
    load_bytes: AtomicU64,
    pub stores: Tally,
    pub flushes: Tally,
    pub fences: Tally,
    pub rmws: Tally,
}

impl Phase {
    pub fn load_bytes(&self) -> u64 {
        self.load_bytes.load(Relaxed)
    }

    /// Seconds spent inside the timed env calls.
    pub fn env_secs(&self) -> f64 {
        self.loads.secs()
            + self.stores.secs()
            + self.flushes.secs()
            + self.fences.secs()
            + self.rmws.secs()
    }
}

/// Everything one probed check records.
pub struct Probe {
    pub pre_failure: Phase,
    pub recovery: Phase,
    /// Fastest pre-failure run that returned normally, i.e. ran the whole
    /// program without a crash: the instrumented side of the §5.2
    /// overhead ratio.
    full_run_ns: AtomicU64,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            pre_failure: Phase::default(),
            recovery: Phase::default(),
            full_run_ns: AtomicU64::new(u64::MAX),
        }
    }
}

impl Probe {
    pub fn phase(&self, recovery: bool) -> &Phase {
        if recovery {
            &self.recovery
        } else {
            &self.pre_failure
        }
    }

    pub fn full_run_secs(&self) -> Option<f64> {
        match self.full_run_ns.load(Relaxed) {
            u64::MAX => None,
            ns => Some(ns as f64 * 1e-9),
        }
    }
}

/// A program whose runs are timed and whose env calls are probed.
pub struct Probed<'a> {
    pub inner: &'a (dyn Program + Sync),
    pub probe: &'a Probe,
}

/// Times one guest run; a run that returns normally in the pre-failure
/// phase is a complete execution.
struct RunSpan<'a> {
    probe: &'a Probe,
    recovery: bool,
    span: Span<'a>,
}

impl Drop for RunSpan<'_> {
    fn drop(&mut self) {
        let ns = u64::try_from(self.span.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if !self.recovery && !std::thread::panicking() {
            self.probe.full_run_ns.fetch_min(ns, Relaxed);
        }
    }
}

impl Program for Probed<'_> {
    fn run(&self, env: &dyn PmEnv) {
        // An execution never changes phase: a crash unwinds out of it.
        let recovery = env.is_recovery();
        let phase = self.probe.phase(recovery);
        let _run = RunSpan {
            probe: self.probe,
            recovery,
            span: phase.runs.span(),
        };
        self.inner.run(&ProbeEnv { inner: env, phase });
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

struct ProbeEnv<'a> {
    inner: &'a dyn PmEnv,
    phase: &'a Phase,
}

impl PmEnv for ProbeEnv<'_> {
    #[track_caller]
    fn load_bytes(&self, addr: PmAddr, buf: &mut [u8]) {
        let _span = self.phase.loads.span();
        self.phase.load_bytes.fetch_add(buf.len() as u64, Relaxed);
        self.inner.load_bytes(addr, buf);
    }

    #[track_caller]
    fn store_bytes(&self, addr: PmAddr, bytes: &[u8]) {
        let _span = self.phase.stores.span();
        self.inner.store_bytes(addr, bytes);
    }

    #[track_caller]
    fn clflush(&self, addr: PmAddr, len: usize) {
        let _span = self.phase.flushes.span();
        self.inner.clflush(addr, len);
    }

    #[track_caller]
    fn clflushopt(&self, addr: PmAddr, len: usize) {
        let _span = self.phase.flushes.span();
        self.inner.clflushopt(addr, len);
    }

    #[track_caller]
    fn clwb(&self, addr: PmAddr, len: usize) {
        let _span = self.phase.flushes.span();
        self.inner.clwb(addr, len);
    }

    #[track_caller]
    fn sfence(&self) {
        let _span = self.phase.fences.span();
        self.inner.sfence();
    }

    #[track_caller]
    fn mfence(&self) {
        let _span = self.phase.fences.span();
        self.inner.mfence();
    }

    #[track_caller]
    fn compare_exchange_u64(&self, addr: PmAddr, current: u64, new: u64) -> u64 {
        let _span = self.phase.rmws.span();
        self.inner.compare_exchange_u64(addr, current, new)
    }

    #[track_caller]
    fn pm_alloc(&self, size: u64, align: u64) -> PmAddr {
        self.inner.pm_alloc(size, align)
    }

    fn root(&self) -> PmAddr {
        self.inner.root()
    }

    fn pool_size(&self) -> u64 {
        self.inner.pool_size()
    }

    fn execution_index(&self) -> usize {
        self.inner.execution_index()
    }

    fn is_recovery(&self) -> bool {
        self.inner.is_recovery()
    }

    #[track_caller]
    fn bug(&self, msg: &str) -> ! {
        self.inner.bug(msg)
    }

    fn spawn(&self, body: &mut dyn FnMut(&dyn PmEnv)) {
        let phase = self.phase;
        self.inner.spawn(&mut |child: &dyn PmEnv| {
            body(&ProbeEnv {
                inner: child,
                phase,
            })
        });
    }

    fn label(&self, msg: &str) {
        self.inner.label(msg);
    }

    #[track_caller]
    fn annotate_expect_persisted(&self, addr: PmAddr, len: usize) {
        self.inner.annotate_expect_persisted(addr, len);
    }

    #[track_caller]
    fn annotate_expect_ordered(&self, a: PmAddr, a_len: usize, b: PmAddr, b_len: usize) {
        self.inner.annotate_expect_ordered(a, a_len, b, b_len);
    }

    #[track_caller]
    fn annotate_commit_var(&self, addr: PmAddr, len: usize) {
        self.inner.annotate_commit_var(addr, len);
    }
}
