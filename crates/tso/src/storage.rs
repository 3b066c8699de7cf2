//! Per-execution storage state: cache contents and writeback intervals.
//!
//! An [`ExecutionStorage`] is the record of everything one execution wrote
//! to the cache: the paper's `e.queue(addr)` map (per-byte store queues)
//! and `e.getcacheline(addr)` map (per-line most-recent-writeback
//! intervals). While an execution runs, its storage is owned by the
//! [`TsoMachine`](crate::TsoMachine); after a simulated power failure the
//! storage is pushed onto the execution stack where post-failure executions
//! query and refine it.
//!
//! The record is line-granular. An integer-hashed index maps each touched
//! cache line to a slot; the slot's line record holds a store queue per
//! written byte and the line's store positions. A 64-entry head table
//! leads from a byte offset to its queue, so a byte lookup is one index
//! probe plus two array reads, and a queue keeps its first entry inline,
//! so recording a byte's first store allocates nothing.
//!
//! Line records and store events are the *frozen* part: they sit behind
//! an [`Arc`] and never change after the crash, when
//! [`TsoMachine::crash`](crate::TsoMachine::crash) compacts them once to
//! exact capacity. The only state post-failure reads refine is the
//! intervals, kept in a flat vector indexed by slot. Cloning an
//! execution's storage therefore shares its queues and copies only its
//! intervals, which is what makes a checker snapshot's capture and
//! restore cheap.

use std::sync::Arc;

use jaaru_pmem::{CacheLineId, IntMap, PmAddr, CACHE_LINE_SIZE};

use crate::{FlushInterval, Seq, SourceLoc, StoreEvent, StoreId, ThreadId};

/// One entry in a per-byte store queue: a value written to this byte and
/// the sequence number at which it reached the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueEntry {
    /// Byte value written.
    pub value: u8,
    /// Cache total-order position of the store.
    pub seq: Seq,
    /// The store event this byte belongs to (for debugging reports).
    pub store: StoreId,
}

/// The stores one execution made to one cache line.
#[derive(Clone, Debug)]
pub(crate) struct LineRecord {
    line: CacheLineId,
    /// Per byte offset: one plus the index of the byte's queue in
    /// `queues`, or 0 when no store reached the byte.
    heads: [u8; CACHE_LINE_SIZE],
    queues: Vec<ByteQueue>,
    /// Sequence numbers of stores to this line, in cache order. Used by the
    /// eager (Yat-style) baseline to enumerate candidate writeback points
    /// and by the analytic state counter.
    store_seqs: Vec<Seq>,
}

impl LineRecord {
    fn new(line: CacheLineId) -> Self {
        LineRecord {
            line,
            heads: [0; CACHE_LINE_SIZE],
            queues: Vec::new(),
            store_seqs: Vec::new(),
        }
    }

    /// The store queue of the byte at `offset` within the line, oldest
    /// first.
    #[inline]
    pub(crate) fn queue(&self, offset: usize) -> &[QueueEntry] {
        match self.heads[offset] {
            0 => &[],
            head => self.queues[head as usize - 1].as_slice(),
        }
    }
}

/// A byte's store queue. Most bytes are written once per execution, so
/// the first entry is kept inline and only a second store moves the
/// queue to the heap.
#[derive(Clone, Debug)]
enum ByteQueue {
    One(QueueEntry),
    Many(Vec<QueueEntry>),
}

impl ByteQueue {
    fn as_slice(&self) -> &[QueueEntry] {
        match self {
            ByteQueue::One(e) => std::slice::from_ref(e),
            ByteQueue::Many(q) => q,
        }
    }

    fn push(&mut self, entry: QueueEntry) {
        match self {
            ByteQueue::One(first) => *self = ByteQueue::Many(vec![*first, entry]),
            ByteQueue::Many(q) => q.push(entry),
        }
    }
}

// Snapshot-accounting charges of `ExecutionStorage::approx_bytes`, in
// bytes: per execution, per written byte, per queue entry, per recorded
// line and per store position.
const CHARGE_BASE: usize = 120;
const CHARGE_BYTE: usize = 32;
const CHARGE_ENTRY: usize = std::mem::size_of::<QueueEntry>();
const CHARGE_LINE: usize = 48;
const CHARGE_SEQ: usize = std::mem::size_of::<Seq>();

/// The part of an execution's record that no post-failure read changes,
/// shared by every clone once the execution ends.
#[derive(Clone, Debug, Default)]
struct Frozen {
    slots: IntMap<CacheLineId, u32>,
    lines: Vec<LineRecord>,
    events: Vec<StoreEvent>,
    /// Running total of [`ExecutionStorage::approx_bytes`] beyond
    /// `CHARGE_BASE`.
    charged: usize,
}

/// The cache/persistency record of a single execution.
///
/// # Example
///
/// ```
/// use jaaru_pmem::PmAddr;
/// use jaaru_tso::{ExecutionStorage, Seq, ThreadId};
///
/// let mut st = ExecutionStorage::new();
/// let addr = PmAddr::new(64);
/// let mut sigma = Seq::ZERO;
/// let seq = sigma.bump();
/// st.record_store(addr, [42], ThreadId(0), std::panic::Location::caller(), seq);
/// assert_eq!(st.last_cache_value(addr).unwrap().value, 42);
/// assert!(st.interval(addr.cache_line()).is_unconstrained());
/// ```
#[derive(Clone, Debug, Default)]
pub struct ExecutionStorage {
    frozen: Arc<Frozen>,
    /// Most-recent-writeback interval per slot.
    intervals: Vec<FlushInterval>,
}

impl ExecutionStorage {
    /// Creates empty storage for a fresh execution.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot of `line`, if this execution stored to or flushed it.
    #[inline]
    fn slot(&self, line: CacheLineId) -> Option<usize> {
        self.frozen.slots.get(&line).map(|&s| s as usize)
    }

    /// The slot of `line`, recording the line first if it is new.
    fn slot_or_insert(
        frozen: &mut Frozen,
        intervals: &mut Vec<FlushInterval>,
        line: CacheLineId,
    ) -> usize {
        if let Some(&s) = frozen.slots.get(&line) {
            return s as usize;
        }
        let s = frozen.lines.len();
        frozen.slots.insert(line, s as u32);
        frozen.lines.push(LineRecord::new(line));
        frozen.charged += CHARGE_LINE;
        intervals.push(FlushInterval::default());
        s
    }

    /// The store record and writeback interval of `line`, if this
    /// execution stored to or flushed it.
    #[inline]
    pub(crate) fn line(&self, line: CacheLineId) -> Option<(&LineRecord, FlushInterval)> {
        let s = self.slot(line)?;
        Some((&self.frozen.lines[s], self.intervals[s]))
    }

    /// Like [`line`](Self::line), with the interval open for refinement
    /// (`DoRead`). The store record stays shared.
    #[inline]
    pub(crate) fn line_mut(
        &mut self,
        line: CacheLineId,
    ) -> Option<(&LineRecord, &mut FlushInterval)> {
        let s = self.slot(line)?;
        Some((&self.frozen.lines[s], &mut self.intervals[s]))
    }

    /// Records a store taking effect in the cache (Figure 8,
    /// `Evict_SB(⟨store, addr, val⟩)`): appends the event and one queue
    /// entry per byte, all sharing `seq`. The event keeps `bytes`, so an
    /// owned `Vec` is moved in without a copy.
    ///
    /// Returns the event id for debugging reports.
    pub fn record_store(
        &mut self,
        addr: PmAddr,
        bytes: impl Into<Vec<u8>>,
        thread: ThreadId,
        loc: SourceLoc,
        seq: Seq,
    ) -> StoreId {
        let bytes = bytes.into();
        let frozen = Arc::make_mut(&mut self.frozen);
        let id = StoreId(frozen.events.len() as u32);
        // One pass per touched line: a store may straddle two.
        let mut done = 0;
        while done < bytes.len() {
            let at = addr + done as u64;
            let offset = at.line_offset();
            let n = (bytes.len() - done).min(CACHE_LINE_SIZE - offset);
            let s = Self::slot_or_insert(frozen, &mut self.intervals, at.cache_line());
            let rec = &mut frozen.lines[s];
            for (k, &value) in bytes[done..done + n].iter().enumerate() {
                let entry = QueueEntry {
                    value,
                    seq,
                    store: id,
                };
                let head = &mut rec.heads[offset + k];
                if *head == 0 {
                    rec.queues.push(ByteQueue::One(entry));
                    *head = rec.queues.len() as u8;
                    frozen.charged += CHARGE_BYTE;
                } else {
                    rec.queues[*head as usize - 1].push(entry);
                }
            }
            frozen.charged += n * CHARGE_ENTRY;
            if rec.store_seqs.last() != Some(&seq) {
                rec.store_seqs.push(seq);
                frozen.charged += CHARGE_SEQ;
            }
            done += n;
        }
        frozen.charged += std::mem::size_of::<StoreEvent>() + bytes.len();
        frozen.events.push(StoreEvent {
            addr,
            bytes,
            seq,
            thread,
            loc,
        });
        id
    }

    /// Records a cache-line flush taking effect at `seq` (Figure 8,
    /// `Evict_SB(⟨clflush, addr⟩)` and `Evict_FB`): raises the lower bound
    /// of the line's most-recent-writeback interval.
    pub fn record_flush(&mut self, line: CacheLineId, seq: Seq) {
        let s = match self.slot(line) {
            Some(s) => s,
            None => {
                Self::slot_or_insert(Arc::make_mut(&mut self.frozen), &mut self.intervals, line)
            }
        };
        self.intervals[s].raise_begin(seq);
    }

    /// Compacts the store record to exact capacity. Called once when the
    /// execution ends; afterwards only the intervals change, and every
    /// clone of this storage shares the compacted record.
    pub(crate) fn freeze(&mut self) {
        if let Some(frozen) = Arc::get_mut(&mut self.frozen) {
            frozen.slots.shrink_to_fit();
            frozen.lines.shrink_to_fit();
            for rec in &mut frozen.lines {
                for q in &mut rec.queues {
                    if let ByteQueue::Many(q) = q {
                        q.shrink_to_fit();
                    }
                }
                rec.queues.shrink_to_fit();
                rec.store_seqs.shrink_to_fit();
            }
            frozen.events.shrink_to_fit();
        }
        self.intervals.shrink_to_fit();
    }

    /// The most-recent-writeback interval for `line` (`e.getcacheline`).
    pub fn interval(&self, line: CacheLineId) -> FlushInterval {
        self.slot(line)
            .map(|s| self.intervals[s])
            .unwrap_or_default()
    }

    /// The per-byte store queue for `addr` (`e.queue`), oldest first.
    #[inline]
    pub fn queue(&self, addr: PmAddr) -> &[QueueEntry] {
        match self.line(addr.cache_line()) {
            Some((rec, _)) => rec.queue(addr.line_offset()),
            None => &[],
        }
    }

    /// The newest cache value of `addr` in this execution, if any store
    /// reached the cache.
    pub fn last_cache_value(&self, addr: PmAddr) -> Option<QueueEntry> {
        self.queue(addr).last().copied()
    }

    /// Sequence number of the first store to `addr` in this execution.
    pub fn first_store_seq(&self, addr: PmAddr) -> Option<Seq> {
        self.queue(addr).first().map(|e| e.seq)
    }

    /// Sequence number of the first store to `addr` strictly after `seq`.
    pub fn next_store_after(&self, addr: PmAddr, seq: Seq) -> Option<Seq> {
        let q = self.queue(addr);
        let idx = q.partition_point(|e| e.seq <= seq);
        q.get(idx).map(|e| e.seq)
    }

    /// The store event behind a [`StoreId`].
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this execution.
    pub fn event(&self, id: StoreId) -> &StoreEvent {
        &self.frozen.events[id.0 as usize]
    }

    /// All store events of this execution, in cache order.
    pub fn events(&self) -> &[StoreEvent] {
        &self.frozen.events
    }

    /// Number of stores that reached the cache.
    pub fn store_count(&self) -> usize {
        self.frozen.events.len()
    }

    /// Cache lines written by this execution, in order of first touch.
    pub fn touched_lines(&self) -> impl Iterator<Item = CacheLineId> + '_ {
        self.frozen
            .lines
            .iter()
            .filter(|rec| !rec.store_seqs.is_empty())
            .map(|rec| rec.line)
    }

    /// Byte addresses written by this execution.
    pub fn touched_addrs(&self) -> impl Iterator<Item = PmAddr> + '_ {
        self.frozen.lines.iter().flat_map(|rec| {
            (0..CACHE_LINE_SIZE)
                .filter(|&o| rec.heads[o] != 0)
                .map(|o| rec.line.base() + o as u64)
        })
    }

    /// Sequence numbers of stores to `line`, in cache order. Together with
    /// the line's interval these define the candidate writeback points the
    /// eager baseline must enumerate.
    pub fn line_store_seqs(&self, line: CacheLineId) -> &[Seq] {
        match self.line(line) {
            Some((rec, _)) => &rec.store_seqs,
            None => &[],
        }
    }

    /// The candidate writeback points for `line` that are consistent with
    /// its current interval: the interval begin itself plus every store
    /// position inside `(begin, end)`.
    ///
    /// Each distinct point yields a distinct persistent snapshot of the
    /// line; their count is the per-line state count in the paper's Yat
    /// comparison (e.g. 9 states for a line holding 8 fresh stores).
    pub fn writeback_points(&self, line: CacheLineId) -> Vec<Seq> {
        let iv = self.interval(line);
        let mut points = vec![iv.begin()];
        for &s in self.line_store_seqs(line) {
            if s > iv.begin() && s < iv.end() {
                points.push(s);
            }
        }
        points
    }

    /// Approximate heap footprint of this storage in bytes, for snapshot
    /// cache accounting. It is a fixed charge model, not a measurement:
    /// 120 bytes per execution, 32 per written byte, 16 per queue entry,
    /// 48 per recorded line, 8 per store position, and each store event's
    /// size plus its bytes. It charges the frozen record in full although
    /// clones share it, so a snapshot cache's byte budget admits and
    /// evicts the same snapshots as when every capture was a deep copy.
    pub fn approx_bytes(&self) -> usize {
        CHARGE_BASE + self.frozen.charged
    }

    /// The value of `addr` in a persistent snapshot whose last writeback of
    /// the address's line happened at `w`: the newest store with `σ ≤ w`,
    /// or `None` if the byte still holds its pre-execution value.
    pub fn snapshot_value(&self, addr: PmAddr, w: Seq) -> Option<u8> {
        let q = self.queue(addr);
        let idx = q.partition_point(|e| e.seq <= w);
        idx.checked_sub(1).map(|i| q[i].value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::Location;

    fn loc() -> SourceLoc {
        Location::caller()
    }

    fn store(st: &mut ExecutionStorage, sigma: &mut Seq, addr: u64, bytes: &[u8]) -> Seq {
        let seq = sigma.bump();
        st.record_store(PmAddr::new(addr), bytes, ThreadId(0), loc(), seq);
        seq
    }

    #[test]
    fn queues_are_per_byte_and_ordered() {
        let mut st = ExecutionStorage::new();
        let mut sigma = Seq::ZERO;
        store(&mut st, &mut sigma, 64, &[1, 2]);
        store(&mut st, &mut sigma, 65, &[9]);
        assert_eq!(st.queue(PmAddr::new(64)).len(), 1);
        let q65 = st.queue(PmAddr::new(65));
        assert_eq!(q65.len(), 2);
        assert!(q65[0].seq < q65[1].seq);
        assert_eq!(q65[1].value, 9);
        assert_eq!(st.last_cache_value(PmAddr::new(65)).unwrap().value, 9);
        assert!(st.last_cache_value(PmAddr::new(66)).is_none());
    }

    #[test]
    fn multibyte_store_shares_one_seq() {
        let mut st = ExecutionStorage::new();
        let mut sigma = Seq::ZERO;
        let seq = store(&mut st, &mut sigma, 64, &[1, 2, 3, 4]);
        for i in 0..4 {
            assert_eq!(st.queue(PmAddr::new(64 + i))[0].seq, seq);
        }
        assert_eq!(st.store_count(), 1);
        assert_eq!(st.line_store_seqs(CacheLineId::new(1)), &[seq]);
    }

    #[test]
    fn first_and_next_store_lookup() {
        let mut st = ExecutionStorage::new();
        let mut sigma = Seq::ZERO;
        let a = PmAddr::new(64);
        let s1 = store(&mut st, &mut sigma, 64, &[1]);
        let s2 = store(&mut st, &mut sigma, 64, &[2]);
        let s3 = store(&mut st, &mut sigma, 64, &[3]);
        assert_eq!(st.first_store_seq(a), Some(s1));
        assert_eq!(st.next_store_after(a, s1), Some(s2));
        assert_eq!(st.next_store_after(a, s2), Some(s3));
        assert_eq!(st.next_store_after(a, s3), None);
        assert_eq!(st.next_store_after(a, Seq::ZERO), Some(s1));
    }

    #[test]
    fn flush_raises_interval_begin() {
        let mut st = ExecutionStorage::new();
        let mut sigma = Seq::ZERO;
        let line = CacheLineId::new(1);
        store(&mut st, &mut sigma, 64, &[1]);
        assert!(st.interval(line).is_unconstrained());
        let f = sigma.bump();
        st.record_flush(line, f);
        assert_eq!(st.interval(line).begin(), f);
        assert_eq!(st.interval(line).end(), Seq::INFINITY);
    }

    #[test]
    fn writeback_points_count_matches_paper_example() {
        // A cache line holding 8 fresh (unflushed) stores has 9 possible
        // persistent states: initial + one per store (§1 of the paper).
        let mut st = ExecutionStorage::new();
        let mut sigma = Seq::ZERO;
        for i in 0..8 {
            store(&mut st, &mut sigma, 64 + i, &[i as u8 + 1]);
        }
        let points = st.writeback_points(CacheLineId::new(1));
        assert_eq!(points.len(), 9);
    }

    #[test]
    fn writeback_points_respect_flush_constraint() {
        let mut st = ExecutionStorage::new();
        let mut sigma = Seq::ZERO;
        store(&mut st, &mut sigma, 64, &[1]);
        store(&mut st, &mut sigma, 65, &[2]);
        let f = sigma.bump();
        st.record_flush(CacheLineId::new(1), f);
        store(&mut st, &mut sigma, 66, &[3]);
        // Possible last writebacks: at the flush, or after the later store.
        let points = st.writeback_points(CacheLineId::new(1));
        assert_eq!(points.len(), 2);
        assert_eq!(points[0], f);
    }

    #[test]
    fn snapshot_value_picks_newest_at_or_before_cut() {
        let mut st = ExecutionStorage::new();
        let mut sigma = Seq::ZERO;
        let a = PmAddr::new(64);
        let s1 = store(&mut st, &mut sigma, 64, &[1]);
        let s2 = store(&mut st, &mut sigma, 64, &[2]);
        assert_eq!(st.snapshot_value(a, Seq::ZERO), None);
        assert_eq!(st.snapshot_value(a, s1), Some(1));
        assert_eq!(st.snapshot_value(a, s2), Some(2));
        assert_eq!(st.snapshot_value(a, Seq::INFINITY), Some(2));
    }

    #[test]
    fn touched_tracking() {
        let mut st = ExecutionStorage::new();
        let mut sigma = Seq::ZERO;
        store(&mut st, &mut sigma, 64, &[1, 2]);
        store(&mut st, &mut sigma, 200, &[3]);
        let lines: Vec<_> = st.touched_lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(st.touched_addrs().count(), 3);
    }

    #[test]
    fn approx_bytes_follows_the_charge_model() {
        let mut st = ExecutionStorage::new();
        let mut sigma = Seq::ZERO;
        assert_eq!(st.approx_bytes(), 120);
        // Four bytes straddling lines 1 and 2, then byte 126 again, then a
        // flush of untouched line 5.
        store(&mut st, &mut sigma, 126, &[1, 2, 3, 4]);
        store(&mut st, &mut sigma, 126, &[5]);
        let f = sigma.bump();
        st.record_flush(CacheLineId::new(5), f);
        let lines = 3 * 48;
        let seqs = 3 * 8;
        let bytes = 4 * 32 + 5 * 16;
        let events = 2 * std::mem::size_of::<StoreEvent>() + 5;
        assert_eq!(st.approx_bytes(), 120 + lines + seqs + bytes + events);
    }

    #[test]
    fn clones_share_the_frozen_record_until_written() {
        let mut st = ExecutionStorage::new();
        let mut sigma = Seq::ZERO;
        store(&mut st, &mut sigma, 64, &[1]);
        st.freeze();
        let mut copy = st.clone();
        assert!(Arc::ptr_eq(&st.frozen, &copy.frozen));
        // Recording into a clone copies the record first.
        store(&mut copy, &mut sigma, 64, &[2]);
        assert!(!Arc::ptr_eq(&st.frozen, &copy.frozen));
        assert_eq!(st.queue(PmAddr::new(64)).len(), 1);
        assert_eq!(copy.queue(PmAddr::new(64)).len(), 2);
    }
}
