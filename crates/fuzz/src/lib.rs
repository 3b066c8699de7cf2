//! # jaaru-fuzz: randomized differential testing of the Jaaru checker
//!
//! The model checker's correctness argument rests on equivalences the
//! paper asserts but hand-written tests only spot-check: the lazy
//! constraint-refinement explorer must agree with a Yat-style eager
//! enumeration, and the checker's verdicts must be invariant across
//! snapshots on/off, worker counts, and diagnostic passes. This crate
//! stress-tests those equivalences with generated programs:
//!
//! * [`gen`] — a seeded ([`SplitMix64`](jaaru::SplitMix64))
//!   generator of self-oracling guest programs over the full nine-op
//!   [`PmEnv`](jaaru::PmEnv) vocabulary, with optional ground-truth
//!   persistency faults in four [`FaultClass`]es (missing flush,
//!   cross-thread race, torn store, redundant flush) that double as
//!   ground truth for the graph-based analysis passes.
//! * [`oracle`] — the differential harness: runs each program through
//!   the lazy checker, the configuration axes, and the bounded eager
//!   baseline, and reports any divergence.
//! * [`mod@minimize`] — a delta-debugging minimizer shrinking a diverging
//!   program (drop ops, merge cache lines, strip the commit idiom) while
//!   the divergence persists.
//! * [`corpus`] — persistent minimized reproducers (seed + program +
//!   decision trace + expected digest) replayed byte-for-byte in CI.
//! * [`mod@repair`] — the `fuzz --repair` loop: every seeded-fault
//!   program is auto-repaired with the synthesis engine
//!   ([`jaaru::synthesize_repair`]) and the campaign fails if any
//!   fault class proves unrepairable.
//!
//! Everything is deterministic: same seeds → same programs → same
//! verdicts → same corpus, across runs and `--jobs` settings.

pub mod corpus;
pub mod gen;
pub mod minimize;
pub mod oracle;
pub mod repair;

pub use corpus::{load_dir, Reproducer};
pub use gen::{generate, FaultClass, FaultMode, GenProgram, Op, MAX_LINES, SLOTS_PER_LINE};
pub use minimize::{harvest, minimize, minimize_divergence, seeded_fault_manifests, shrink_trace};
pub use oracle::{run_campaign, CampaignReport, Divergence, Oracle, SeedOutcome};
pub use repair::{repair_config, repair_seeded, ClassRepair, RepairStats};
