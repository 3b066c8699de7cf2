//! Seeded guest-program generation over the full [`PmEnv`] vocabulary.
//!
//! The generator extends the `jaaru-workloads` synthetic patterns
//! (Figure 2's same-line interleavings, Figure 4 / array-init commit
//! stores, unconstrained checksum-style regions) into a general
//! SplitMix64-driven program family:
//!
//! * a multi-cacheline data layout (up to [`MAX_LINES`] lines of
//!   [`SLOTS_PER_LINE`] aligned `u64` slots),
//! * a random pre-failure body over the nine-op vocabulary — stores,
//!   loads, all three flush kinds (`clflush`, `clflushopt`, `clwb`),
//!   both fences (`sfence`, `mfence`), and both RMWs
//!   (`compare_exchange`, `fetch_add`),
//! * an optional commit-store epilogue (flush every data line, fence,
//!   publish a commit flag — the idiom Jaaru's constraint refinement
//!   exploits),
//! * an optional *seeded persistency fault* with a known ground-truth
//!   label, drawn from five [`FaultClass`]es: the canonical
//!   missing-flush bug (the epilogue omits one line's flush after a
//!   trailing store), an unpersisted CAS (the epilogue omits the flush
//!   after a trailing successful `compare_exchange` — the lock-free
//!   publication bug), a cross-thread persistency race (the line's
//!   flush runs on a spawned thread with no synchronization back), a
//!   torn store (an 8-byte store straddling into an unflushed line),
//!   and a redundant flush (the same clean line flushed twice
//!   back-to-back).
//!
//! The generated recovery procedure asserts exactly the legal states:
//! committed slots must hold their final values; uncommitted slots may
//! hold any value their history ever contained (8-byte aligned stores
//! are atomic, so no torn values are legal). That makes every generated
//! program *self-oracling*: a clean-mode program that reports a bug, or
//! a fault-mode program that doesn't, is a checker defect — no
//! hand-written expected output required.
//!
//! Every program is a pure function of `(seed, ops budget, fault mode)`
//! and its explicit op list, so corpus entries replay byte-identically
//! across machines and job counts.

use std::fmt;

use jaaru::SplitMix64;
use jaaru::{PmAddr, PmEnv, Program};

/// Maximum number of data cache lines a generated program touches.
pub const MAX_LINES: usize = 3;

/// `u64` slots used per data line (64-byte lines hold 8; using fewer
/// keeps recovery's read-from branching within test budgets).
pub const SLOTS_PER_LINE: usize = 4;

/// One pre-failure operation — the nine-op [`PmEnv`] vocabulary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `store_u64(slot, value)`.
    Store { line: u8, slot: u8, value: u64 },
    /// `load_u64(slot)` (deterministic pre-failure; exercises the
    /// instrumented read path).
    Load { line: u8, slot: u8 },
    /// `clflush` of the whole data line.
    Clflush { line: u8 },
    /// `clflushopt` of the whole data line (unordered until fenced).
    ClflushOpt { line: u8 },
    /// `clwb` of the whole data line.
    Clwb { line: u8 },
    /// Store fence.
    Sfence,
    /// Full fence.
    Mfence,
    /// Successful `compare_exchange_u64` from the slot's current value.
    Cas { line: u8, slot: u8, value: u64 },
    /// `fetch_add_u64` bringing the slot to `value` (the delta is
    /// derived from the simulated current value).
    FetchAdd { line: u8, slot: u8, value: u64 },
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Op::Store { line, slot, value } => write!(f, "store {line} {slot} {value}"),
            Op::Load { line, slot } => write!(f, "load {line} {slot}"),
            Op::Clflush { line } => write!(f, "clflush {line}"),
            Op::ClflushOpt { line } => write!(f, "clflushopt {line}"),
            Op::Clwb { line } => write!(f, "clwb {line}"),
            Op::Sfence => write!(f, "sfence"),
            Op::Mfence => write!(f, "mfence"),
            Op::Cas { line, slot, value } => write!(f, "cas {line} {slot} {value}"),
            Op::FetchAdd { line, slot, value } => write!(f, "fetchadd {line} {slot} {value}"),
        }
    }
}

impl Op {
    /// Parses the [`Display`](fmt::Display) form back.
    pub fn parse(text: &str) -> Result<Op, String> {
        let mut parts = text.split_whitespace();
        let kind = parts.next().ok_or("empty op")?;
        let mut num = |name: &str| -> Result<u64, String> {
            parts
                .next()
                .ok_or_else(|| format!("op {kind:?}: missing {name}"))?
                .parse::<u64>()
                .map_err(|e| format!("op {kind:?}: bad {name}: {e}"))
        };
        let op = match kind {
            "store" => Op::Store {
                line: num("line")? as u8,
                slot: num("slot")? as u8,
                value: num("value")?,
            },
            "load" => Op::Load {
                line: num("line")? as u8,
                slot: num("slot")? as u8,
            },
            "clflush" => Op::Clflush {
                line: num("line")? as u8,
            },
            "clflushopt" => Op::ClflushOpt {
                line: num("line")? as u8,
            },
            "clwb" => Op::Clwb {
                line: num("line")? as u8,
            },
            "sfence" => Op::Sfence,
            "mfence" => Op::Mfence,
            "cas" => Op::Cas {
                line: num("line")? as u8,
                slot: num("slot")? as u8,
                value: num("value")?,
            },
            "fetchadd" => Op::FetchAdd {
                line: num("line")? as u8,
                slot: num("slot")? as u8,
                value: num("value")?,
            },
            other => return Err(format!("unknown op {other:?}")),
        };
        Ok(op)
    }

    fn touches(&self) -> Option<(u8, Option<u8>)> {
        match *self {
            Op::Store { line, slot, .. }
            | Op::Load { line, slot }
            | Op::Cas { line, slot, .. }
            | Op::FetchAdd { line, slot, .. } => Some((line, Some(slot))),
            Op::Clflush { line } | Op::ClflushOpt { line } | Op::Clwb { line } => {
                Some((line, None))
            }
            Op::Sfence | Op::Mfence => None,
        }
    }

    /// The line this op addresses, if any.
    pub fn line(&self) -> Option<u8> {
        self.touches().map(|(l, _)| l)
    }

    /// Remaps the op's line (used by the minimizer's line-merge pass).
    pub fn with_line(mut self, new: u8) -> Op {
        match &mut self {
            Op::Store { line, .. }
            | Op::Load { line, .. }
            | Op::Cas { line, .. }
            | Op::FetchAdd { line, .. }
            | Op::Clflush { line }
            | Op::ClflushOpt { line }
            | Op::Clwb { line } => *line = new,
            Op::Sfence | Op::Mfence => {}
        }
        self
    }
}

/// Which planted persistency construct a seeded fault is.
///
/// Buggy classes ([`MissingFlush`](FaultClass::MissingFlush),
/// [`UnpersistedCas`](FaultClass::UnpersistedCas),
/// [`Torn`](FaultClass::Torn)) must manifest a recovery assertion
/// naming the faulted line; clean classes
/// ([`CrossThread`](FaultClass::CrossThread),
/// [`RedundantFlush`](FaultClass::RedundantFlush)) must check clean
/// while the matching static analysis pass flags the planted construct
/// — they are ground truth for the lint engine, not the explorer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FaultClass {
    /// The commit epilogue omits the faulted line's flush after a
    /// trailing store — the paper's canonical missing-flush bug.
    #[default]
    MissingFlush,
    /// The commit epilogue omits the faulted line's flush after a
    /// trailing *successful CAS* — the lock-free publication bug the
    /// `lockfree` workload family seeds as `unpersisted-cas`: the RMW
    /// takes effect in the cache, its success is acted on, but nothing
    /// orders it to media before the commit store.
    UnpersistedCas,
    /// The faulted line is persisted only by a spawned thread
    /// (`clflushopt` + `sfence`) with no synchronizing edge back to the
    /// storing thread. Crash-consistent under the deterministic
    /// run-to-completion schedule, but a persistency race in the
    /// program text.
    CrossThread,
    /// An 8-byte store straddling the last data line into its never-
    /// flushed neighbor: the halves persist independently, so a
    /// committed recovery can observe a torn value.
    Torn,
    /// The faulted line is flushed twice back-to-back with no
    /// intervening store; the second flush is pure overhead.
    RedundantFlush,
}

impl FaultClass {
    /// Stable kebab-case name — the corpus `class:` key and log label.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultClass::MissingFlush => "missing-flush",
            FaultClass::UnpersistedCas => "unpersisted-cas",
            FaultClass::CrossThread => "cross-thread",
            FaultClass::Torn => "torn",
            FaultClass::RedundantFlush => "redundant-flush",
        }
    }

    /// Parses the [`as_str`](Self::as_str) form back.
    pub fn parse(text: &str) -> Result<FaultClass, String> {
        match text {
            "missing-flush" => Ok(FaultClass::MissingFlush),
            "unpersisted-cas" => Ok(FaultClass::UnpersistedCas),
            "cross-thread" => Ok(FaultClass::CrossThread),
            "torn" => Ok(FaultClass::Torn),
            "redundant-flush" => Ok(FaultClass::RedundantFlush),
            other => Err(format!("unknown fault class {other:?}")),
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How seeded persistency faults are assigned during generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultMode {
    /// A deterministic fraction of seeds (about one in five) get a
    /// fault; the rest are correct by construction.
    Auto,
    /// Never inject a fault (every program must check clean).
    Never,
    /// Always inject a fault (every program must report the seeded bug).
    Force,
}

/// A generated guest program: layout, pre-failure body, commit idiom,
/// and the seeded-fault label.
///
/// Implements [`Program`], so it runs unmodified under the lazy model
/// checker, the Yat-style eager baseline, and the native environment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenProgram {
    /// Seed this program was generated from (provenance; the op list is
    /// authoritative — minimization edits it).
    pub seed: u64,
    /// Data cache lines in use (1..=[`MAX_LINES`]).
    pub lines: usize,
    /// The pre-failure body.
    pub ops: Vec<Op>,
    /// Whether the commit-store epilogue runs after the body.
    pub commit: bool,
    /// The faulted data line. `None` = correct by construction. Only
    /// meaningful with [`commit`](Self::commit) set; what is planted on
    /// the line depends on [`fault_class`](Self::fault_class).
    pub fault: Option<u8>,
    /// Which construct the fault plants (ignored when
    /// [`fault`](Self::fault) is `None`).
    pub fault_class: FaultClass,
    name: String,
}

/// Value of the planted straddling store: distinct nonzero halves, so a
/// torn observation identifies which half persisted.
const TORN_MARK: u64 = 0xAAAA_BBBB_CCCC_DDDD;

/// The per-slot value histories implied by a body: `[line][slot]` → every
/// value the slot holds over the pre-failure execution, initial 0 first.
type Histories = Vec<Vec<Vec<u64>>>;

impl GenProgram {
    /// Builds a program from explicit parts (corpus deserialization and
    /// the minimizer; generation goes through [`generate`]).
    pub fn from_parts(
        seed: u64,
        lines: usize,
        ops: Vec<Op>,
        commit: bool,
        fault: Option<u8>,
    ) -> GenProgram {
        assert!((1..=MAX_LINES).contains(&lines), "lines out of range");
        assert!(
            fault.is_none() || commit,
            "a seeded fault requires the commit epilogue"
        );
        if let Some(f) = fault {
            assert!((f as usize) < lines, "fault line out of range");
        }
        for op in &ops {
            if let Some((line, slot)) = op.touches() {
                assert!((line as usize) < lines, "op line out of range: {op}");
                if let Some(slot) = slot {
                    assert!(
                        (slot as usize) < SLOTS_PER_LINE,
                        "op slot out of range: {op}"
                    );
                }
            }
        }
        GenProgram {
            seed,
            lines,
            ops,
            commit,
            fault,
            fault_class: FaultClass::MissingFlush,
            name: format!("fuzz-{seed:#x}"),
        }
    }

    /// Sets the fault class (builder-style; generation and corpus
    /// deserialization). A torn fault must sit on the last data line —
    /// its straddling store targets the line past the layout.
    pub fn with_class(mut self, class: FaultClass) -> GenProgram {
        if class == FaultClass::Torn {
            if let Some(f) = self.fault {
                assert_eq!(
                    f as usize,
                    self.lines - 1,
                    "a torn fault must be on the last data line"
                );
            }
        }
        self.fault_class = class;
        self
    }

    /// Whether the seeded ground truth says this program must report a
    /// bug (`true`) or check clean (`false`). Cross-thread and
    /// redundant-flush constructs are crash-consistent by construction;
    /// their ground truth is a *diagnostic*, not a bug.
    pub fn expect_buggy(&self) -> bool {
        self.fault.is_some()
            && matches!(
                self.fault_class,
                FaultClass::MissingFlush | FaultClass::UnpersistedCas | FaultClass::Torn
            )
    }

    /// Base address of a data line: data lines start one line past the
    /// root.
    fn line_base(root: PmAddr, line: u8) -> PmAddr {
        root + 64 * (line as u64 + 1)
    }

    /// Address of a data slot.
    fn slot_addr(root: PmAddr, line: u8, slot: u8) -> PmAddr {
        Self::line_base(root, line) + 8 * slot as u64
    }

    /// Address of the planted torn store: the last 4 bytes of the
    /// faulted (last) data line, straddling into the never-flushed line
    /// past the layout.
    fn straddle_addr(root: PmAddr, line: u8) -> PmAddr {
        Self::line_base(root, line) + 60
    }

    /// Replays the body against a value simulator, returning per-slot
    /// histories. The body is deterministic, so this is exact.
    fn histories(&self) -> Histories {
        let mut h: Histories = vec![vec![vec![0]; SLOTS_PER_LINE]; self.lines];
        for op in &self.ops {
            if let Op::Store { line, slot, value }
            | Op::Cas { line, slot, value }
            | Op::FetchAdd { line, slot, value } = *op
            {
                h[line as usize][slot as usize].push(value);
            }
        }
        h
    }

    /// The pre-failure body, executed against any [`PmEnv`].
    fn body(&self, env: &dyn PmEnv) {
        let root = env.root();
        for op in &self.ops {
            match *op {
                Op::Store { line, slot, value } => {
                    env.store_u64(Self::slot_addr(root, line, slot), value)
                }
                Op::Load { line, slot } => {
                    let _ = env.load_u64(Self::slot_addr(root, line, slot));
                }
                Op::Clflush { line } => env.clflush(root + 64 * (line as u64 + 1), 64),
                Op::ClflushOpt { line } => env.clflushopt(root + 64 * (line as u64 + 1), 64),
                Op::Clwb { line } => env.clwb(root + 64 * (line as u64 + 1), 64),
                Op::Sfence => env.sfence(),
                Op::Mfence => env.mfence(),
                Op::Cas { line, slot, value } => {
                    let addr = Self::slot_addr(root, line, slot);
                    let current = env.load_u64(addr);
                    let observed = env.compare_exchange_u64(addr, current, value);
                    env.pm_assert(observed == current, "pre-failure CAS lost a race");
                }
                Op::FetchAdd { line, slot, value } => {
                    let addr = Self::slot_addr(root, line, slot);
                    let current = env.load_u64(addr);
                    env.fetch_add_u64(addr, value.wrapping_sub(current));
                }
            }
        }
        match (self.fault, self.fault_class) {
            (Some(line), FaultClass::CrossThread) => {
                // The planted race: dirty the faulted line past the
                // recovery-checked slots, then persist it from a
                // spawned thread with no synchronization back to the
                // storing thread. Run-to-completion scheduling keeps
                // the program crash-consistent — the race is a
                // program-text hazard only the static pass sees.
                env.store_u64(Self::line_base(root, line) + 32, 0x0ff1_0ad5);
                env.spawn(&mut |t| {
                    t.clflushopt(Self::line_base(root, line), 64);
                    t.sfence();
                });
            }
            (Some(line), FaultClass::Torn) => {
                // The planted torn store: straddles the last data line
                // into its neighbor. The epilogue flushes the low half
                // with the rest of the line; the high half has no flush
                // anywhere.
                env.store_u64(Self::straddle_addr(root, line), TORN_MARK);
            }
            (Some(line), FaultClass::RedundantFlush) => {
                // The planted redundancy: dirty the line (again past
                // the slots), flush it, flush it again — the second
                // flush covers an all-clean line.
                env.store_u64(Self::line_base(root, line) + 32, 0x0ff1_0ad5);
                env.clflush(Self::line_base(root, line), 64);
                env.clflush(Self::line_base(root, line), 64);
            }
            _ => {}
        }
        if self.commit {
            // The commit-store idiom: persist every data line, then
            // publish. A missing-flush fault omits exactly one line's
            // flush — the paper's canonical bug, with the label carried
            // in the program; a cross-thread fault delegates that flush
            // to the spawned thread above.
            for line in 0..self.lines as u8 {
                let delegated = self.fault == Some(line)
                    && matches!(
                        self.fault_class,
                        FaultClass::MissingFlush
                            | FaultClass::UnpersistedCas
                            | FaultClass::CrossThread
                    );
                if !delegated {
                    env.clflush(Self::line_base(root, line), 64);
                }
            }
            env.sfence();
            env.store_u64(root, 1);
            env.clflush(root, 8);
            env.sfence();
        }
    }

    /// The recovery procedure: assert exactly the legal post-failure
    /// states implied by the body.
    fn recover(&self, env: &dyn PmEnv) {
        let root = env.root();
        let histories = self.histories();
        let committed = self.commit && env.load_u64(root) == 1;
        for line in 0..self.lines as u8 {
            for slot in 0..SLOTS_PER_LINE as u8 {
                let v = env.load_u64(Self::slot_addr(root, line, slot));
                let history = &histories[line as usize][slot as usize];
                if committed {
                    // The epilogue flushed and fenced every data line
                    // before the commit store, so a visible commit flag
                    // pins every slot at its final value.
                    env.pm_assert(
                        v == *history.last().expect("history includes the initial 0"),
                        &format!("committed slot lost (line {line})"),
                    );
                } else {
                    // Uncommitted: aligned u64 stores are atomic, so the
                    // slot may hold any value of its history, nothing
                    // else.
                    env.pm_assert(
                        history.contains(&v),
                        &format!("impossible slot value (line {line})"),
                    );
                }
            }
        }
        if let (Some(line), FaultClass::Torn) = (self.fault, self.fault_class) {
            let v = env.load_u64(Self::straddle_addr(root, line));
            let lo = TORN_MARK & 0xFFFF_FFFF;
            let hi = TORN_MARK & !0xFFFF_FFFF;
            if committed {
                // The low half was flushed and fenced with its line
                // before the commit store; the high half has no flush
                // at all, so a committed recovery can observe it torn —
                // the seeded bug.
                env.pm_assert(
                    v == TORN_MARK,
                    &format!("torn straddling store (line {line})"),
                );
            } else {
                // Uncommitted: each half independently holds 0 or its
                // new bytes; anything else is a checker defect.
                env.pm_assert(
                    v == 0 || v == lo || v == hi || v == TORN_MARK,
                    "impossible straddling value",
                );
            }
        }
    }
}

impl Program for GenProgram {
    fn run(&self, env: &dyn PmEnv) {
        if env.is_recovery() {
            self.recover(env);
        } else {
            self.body(env);
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Generates the program for `seed`: layout, body of at most `ops_max`
/// operations, commit idiom, and (per `mode`) a seeded fault.
///
/// # Example
///
/// ```
/// use jaaru_fuzz::{generate, FaultMode};
///
/// let clean = generate(7, 16, FaultMode::Never);
/// assert!(!clean.expect_buggy());
/// let report = jaaru::check(&clean);
/// assert!(report.is_clean(), "{report}");
///
/// let faulted = generate(7, 16, FaultMode::Force);
/// assert!(faulted.expect_buggy());
/// let report = jaaru::check(&faulted);
/// assert!(!report.is_clean());
/// assert!(report.bugs[0].message.contains("committed slot lost"));
/// ```
pub fn generate(seed: u64, ops_max: usize, mode: FaultMode) -> GenProgram {
    // Decorrelate the stream from small consecutive seeds.
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x6a61_6172_7521);
    let lines = 1 + (rng.next_u64() % MAX_LINES as u64) as usize;
    let ops_max = ops_max.max(6);
    let n_ops = 4 + (rng.next_u64() % (ops_max as u64 - 3)) as usize;

    let faulted = match mode {
        FaultMode::Never => false,
        FaultMode::Force => true,
        FaultMode::Auto => rng.next_u64().is_multiple_of(5),
    };
    // The class is drawn only for auto-faulted seeds, after the faulted
    // decision: fault-free seed streams are byte-identical to earlier
    // generator versions, and forced-fault callers (minimizer drills,
    // corpus harvesting) keep the canonical missing-flush class.
    let class = if faulted && mode == FaultMode::Auto {
        match rng.next_u64() % 5 {
            0 => FaultClass::CrossThread,
            1 => FaultClass::Torn,
            2 => FaultClass::RedundantFlush,
            3 => FaultClass::UnpersistedCas,
            _ => FaultClass::MissingFlush,
        }
    } else {
        FaultClass::MissingFlush
    };
    // A fault needs the commit idiom to manifest; otherwise flip a coin —
    // commit-mode programs exercise constraint refinement's fast path,
    // free-mode programs its unconstrained read-from enumeration.
    let commit = faulted || rng.next_u64().is_multiple_of(2);

    let mut ops = Vec::with_capacity(n_ops + 1);
    // Distinct nonzero values make recovery's history assertions exact.
    let mut next_value = 1u64;
    let mut current = vec![[0u64; SLOTS_PER_LINE]; lines];
    let pick_line = |rng: &mut SplitMix64| (rng.next_u64() % lines as u64) as u8;
    for _ in 0..n_ops {
        let roll = rng.next_u64() % 100;
        let line = pick_line(&mut rng);
        let slot = (rng.next_u64() % SLOTS_PER_LINE as u64) as u8;
        let op = match roll {
            0..=39 => Op::Store {
                line,
                slot,
                value: next_value,
            },
            40..=49 => Op::Load { line, slot },
            50..=61 => Op::Clflush { line },
            62..=69 => Op::ClflushOpt { line },
            70..=74 => Op::Clwb { line },
            75..=84 => Op::Sfence,
            85..=89 => Op::Mfence,
            90..=94 => Op::Cas {
                line,
                slot,
                value: next_value,
            },
            _ => Op::FetchAdd {
                line,
                slot,
                value: next_value,
            },
        };
        if let Op::Store { line, slot, value }
        | Op::Cas { line, slot, value }
        | Op::FetchAdd { line, slot, value } = op
        {
            current[line as usize][slot as usize] = value;
            next_value += 1;
        }
        ops.push(op);
    }

    let fault = if faulted {
        match class {
            FaultClass::MissingFlush => {
                let line = (rng.next_u64() % lines as u64) as u8;
                let slot = (rng.next_u64() % SLOTS_PER_LINE as u64) as u8;
                // A trailing store to the faulted line after any body
                // flush of it: its value reaches the cache but — with
                // the epilogue flush omitted — persists only by luck,
                // so a committed recovery can observe the older value.
                // This makes the seeded bug reachable by construction.
                ops.push(Op::Store {
                    line,
                    slot,
                    value: next_value,
                });
                Some(line)
            }
            FaultClass::UnpersistedCas => {
                let line = (rng.next_u64() % lines as u64) as u8;
                let slot = (rng.next_u64() % SLOTS_PER_LINE as u64) as u8;
                // Same shape as the missing-flush plant, but the
                // trailing write is a successful CAS: its new value is
                // acted on (the pre-failure assert) yet never ordered to
                // media, so a committed recovery can observe the value
                // the CAS displaced.
                ops.push(Op::Cas {
                    line,
                    slot,
                    value: next_value,
                });
                Some(line)
            }
            // The straddle targets the line past the layout, so the
            // torn fault is pinned to the last data line.
            FaultClass::Torn => Some((lines - 1) as u8),
            FaultClass::CrossThread | FaultClass::RedundantFlush => {
                Some((rng.next_u64() % lines as u64) as u8)
            }
        }
    } else {
        None
    };

    GenProgram::from_parts(seed, lines, ops, commit, fault).with_class(class)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaaru::{Config, ModelChecker};

    fn checker() -> ModelChecker {
        let mut c = Config::new();
        c.pool_size(4096);
        ModelChecker::new(c)
    }

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..50 {
            assert_eq!(
                generate(seed, 16, FaultMode::Auto),
                generate(seed, 16, FaultMode::Auto)
            );
        }
    }

    #[test]
    fn clean_programs_check_clean() {
        for seed in 0..30 {
            let p = generate(seed, 12, FaultMode::Never);
            let report = checker().check(&p);
            assert!(report.is_clean(), "seed {seed}: {report}\n{:?}", p.ops);
        }
    }

    #[test]
    fn faulted_programs_report_the_seeded_line() {
        for seed in 0..30 {
            let p = generate(seed, 12, FaultMode::Force);
            let fault = p.fault.expect("forced fault");
            let report = checker().check(&p);
            assert!(!report.is_clean(), "seed {seed}: fault must manifest");
            for bug in &report.bugs {
                assert_eq!(
                    bug.message,
                    format!("committed slot lost (line {fault})"),
                    "seed {seed}: only the seeded line can fail"
                );
            }
        }
    }

    #[test]
    fn ops_roundtrip_through_text() {
        let p = generate(99, 20, FaultMode::Force);
        for op in &p.ops {
            assert_eq!(Op::parse(&op.to_string()).unwrap(), *op);
        }
        assert!(Op::parse("warble 1").is_err());
        assert!(Op::parse("store 1").is_err());
    }

    #[test]
    fn vocabulary_is_reachable() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for seed in 0..300 {
            for op in &generate(seed, 24, FaultMode::Never).ops {
                seen.insert(std::mem::discriminant(op));
            }
        }
        assert_eq!(seen.len(), 9, "all nine op kinds generated");
    }

    #[test]
    #[should_panic(expected = "requires the commit epilogue")]
    fn fault_without_commit_is_rejected() {
        GenProgram::from_parts(0, 1, vec![], false, Some(0));
    }

    #[test]
    fn all_fault_classes_are_reachable() {
        use std::collections::HashMap;
        let mut by_class: HashMap<&'static str, u64> = HashMap::new();
        for seed in 0..400 {
            let p = generate(seed, 12, FaultMode::Auto);
            if p.fault.is_some() {
                *by_class.entry(p.fault_class.as_str()).or_default() += 1;
            }
        }
        assert_eq!(
            by_class.len(),
            5,
            "all five fault classes generated: {by_class:?}"
        );
    }

    #[test]
    fn unpersisted_cas_programs_report_the_seeded_line() {
        let mut checked = 0;
        for seed in 0..400 {
            let p = generate(seed, 10, FaultMode::Auto);
            if p.fault.is_none() || p.fault_class != FaultClass::UnpersistedCas {
                continue;
            }
            let fault = p.fault.unwrap();
            assert!(p.expect_buggy());
            assert!(
                matches!(p.ops.last(), Some(Op::Cas { line, .. }) if *line == fault),
                "seed {seed}: the plant is a trailing CAS on the faulted line"
            );
            let report = checker().check(&p);
            assert!(
                !report.is_clean(),
                "seed {seed}: unpersisted CAS must manifest"
            );
            for bug in &report.bugs {
                assert_eq!(
                    bug.message,
                    format!("committed slot lost (line {fault})"),
                    "seed {seed}: only the seeded line can fail"
                );
            }
            checked += 1;
            if checked == 5 {
                break;
            }
        }
        assert!(
            checked >= 3,
            "too few unpersisted-cas seeds in range: {checked}"
        );
    }

    #[test]
    fn torn_programs_report_the_straddling_store() {
        let mut checked = 0;
        for seed in 0..300 {
            let p = generate(seed, 10, FaultMode::Auto);
            if p.fault.is_none() || p.fault_class != FaultClass::Torn {
                continue;
            }
            let fault = p.fault.unwrap();
            assert_eq!(fault as usize, p.lines - 1, "torn fault pins the last line");
            assert!(p.expect_buggy());
            let report = checker().check(&p);
            assert!(!report.is_clean(), "seed {seed}: torn fault must manifest");
            for bug in &report.bugs {
                assert_eq!(
                    bug.message,
                    format!("torn straddling store (line {fault})"),
                    "seed {seed}: only the straddle can fail"
                );
            }
            checked += 1;
            if checked == 5 {
                break;
            }
        }
        assert!(checked >= 3, "too few torn seeds in range: {checked}");
    }

    #[test]
    fn cross_thread_and_redundant_programs_check_clean() {
        let (mut cross, mut redundant) = (0, 0);
        for seed in 0..400 {
            let p = generate(seed, 10, FaultMode::Auto);
            match (p.fault, p.fault_class) {
                (Some(_), FaultClass::CrossThread) => cross += 1,
                (Some(_), FaultClass::RedundantFlush) => redundant += 1,
                _ => continue,
            }
            assert!(!p.expect_buggy(), "seed {seed}: clean-class ground truth");
            if cross + redundant <= 8 {
                let report = checker().check(&p);
                assert!(report.is_clean(), "seed {seed}: {report}");
            }
        }
        assert!(
            cross > 0 && redundant > 0,
            "{cross} cross, {redundant} redundant"
        );
    }

    #[test]
    #[should_panic(expected = "last data line")]
    fn torn_fault_off_the_last_line_is_rejected() {
        let _ = GenProgram::from_parts(0, 2, vec![], true, Some(0)).with_class(FaultClass::Torn);
    }

    #[test]
    fn fault_class_roundtrips_through_text() {
        for class in [
            FaultClass::MissingFlush,
            FaultClass::UnpersistedCas,
            FaultClass::CrossThread,
            FaultClass::Torn,
            FaultClass::RedundantFlush,
        ] {
            assert_eq!(FaultClass::parse(class.as_str()).unwrap(), class);
        }
        assert!(FaultClass::parse("warble").is_err());
    }
}
