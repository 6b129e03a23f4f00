//! The byte cache: packet store plus fingerprint index.
//!
//! Both the encoder and the decoder keep one of these. The *packet store*
//! holds recent packet payloads under a byte budget (FIFO eviction); the
//! *fingerprint index* maps each retained representative fingerprint to
//! the most recent packet containing it and the window's offset there —
//! "most recent" because, as in the paper, inserting an existing
//! fingerprint *replaces* the previous entry. That replacement rule is
//! load-bearing: it is what makes a naive encoder point a fingerprint at
//! a packet the decoder never received.
//!
//! # Layout
//!
//! Packets live in a slab arena of generational slots: eviction bumps a
//! slot's generation and recycles it through a free list, so a handle
//! held by a stale index entry can never resolve to the wrong packet.
//! Both indexes are open-addressing tables with linear probing:
//!
//! * the **fingerprint table** maps `fingerprint → (slot, generation,
//!   offset)`. Entries are never individually deleted (matching the
//!   paper's semantics, where an index entry simply stops resolving when
//!   its packet leaves the store) — a lookup whose generation disagrees
//!   with the slot's current generation is stale and reports a miss.
//! * the **id table** maps `packet id → slot` and supports true deletion
//!   (backward-shift, no tombstones) because ids are removed on every
//!   eviction.
//!
//! Sampled fingerprints have `sample_bits` low zero bits by construction,
//! so both tables mix keys with a Fibonacci multiply and take the *high*
//! bits of the product for the bucket index.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};

use bytes::Bytes;

use bytecache_packet::{FlowId, SeqNum};
use bytecache_rabin::sampler::Sampler;
use bytecache_rabin::{Fingerprinter, LaneScratch};
use bytecache_telemetry::{Event, EventKind, Recorder};

use crate::config::DreConfig;

/// Identifier of a cached packet. Encoders assign these sequentially and
/// carry them (truncated to 32 bits) in the shim header; decoders adopt
/// the encoder's ids so the two stores stay aligned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketId(pub u64);

impl core::fmt::Display for PacketId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Metadata recorded with every cached packet; the encoding policies'
/// eligibility checks read these fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryMeta {
    /// Flow the packet belonged to.
    pub flow: FlowId,
    /// TCP sequence number of its first payload byte.
    pub seq: SeqNum,
    /// Sequence number one past its last payload byte.
    pub seq_end: SeqNum,
    /// Zero-based index of this packet within its flow at this cache.
    pub flow_index: u64,
}

/// A cached packet: payload plus metadata.
#[derive(Debug, Clone)]
pub struct Stored {
    /// The original (pre-encoding) payload.
    pub payload: Bytes,
    /// Policy-relevant metadata.
    pub meta: EntryMeta,
}

/// Counters the cache maintains.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Packets inserted.
    pub inserts: u64,
    /// Packets evicted by the byte/packet budget.
    pub evictions: u64,
    /// Fingerprint index insertions that replaced an existing entry.
    pub replacements: u64,
    /// Full flushes.
    pub flushes: u64,
    /// Indexing passes skipped because the packet was already gone —
    /// e.g. evicted by its own insert when the payload exceeds the byte
    /// budget. Counted instead of panicking so one oversized or racing
    /// packet cannot abort a shard.
    pub index_skips: u64,
}

impl CacheStats {
    /// Fold another shard's counters into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.inserts += other.inserts;
        self.evictions += other.evictions;
        self.replacements += other.replacements;
        self.flushes += other.flushes;
        self.index_skips += other.index_skips;
    }
}

/// Counters describing one indexing pass over a packet's payload.
///
/// Returned by [`Cache::index_payload`] and [`Cache::index_sampled`] so
/// the encoder/decoder stats can report scan effort without touching the
/// hot loop twice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexOutcome {
    /// Windows the pass rolled a fingerprint over (zero for
    /// [`Cache::index_sampled`], whose windows were rolled by the scan).
    pub windows: u64,
    /// Windows that passed the sampler (zero for `index_sampled`).
    pub sampled: u64,
    /// Fingerprint-table insertions performed.
    pub insertions: u64,
    /// 1 if the pass was skipped because the packet was no longer
    /// stored (see [`CacheStats::index_skips`]), else 0.
    pub skipped: u64,
}

/// Fibonacci multiplier (⌊2^64/φ⌋, odd): spreads keys whose low bits are
/// constrained — sampled fingerprints always end in `sample_bits` zeros.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiply-and-rotate hasher (FxHash-style) for the per-packet flow
/// lookups. `FlowId` is a 12-byte value hashed once per encoded and
/// decoded packet; SipHash's per-call setup dwarfs the mixing for keys
/// this small, and the flow map needs no DoS resistance — its keys come
/// from the deployment's own traffic, not an adversarial hash-flooding
/// surface.
#[derive(Default)]
struct FlowHasher(u64);

impl FlowHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(26) ^ word).wrapping_mul(FIB);
    }
}

impl std::hash::Hasher for FlowHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(u64::from(v));
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type FlowMap = HashMap<FlowId, u64, std::hash::BuildHasherDefault<FlowHasher>>;

/// One resident packet in the arena.
#[derive(Debug)]
struct SlotData {
    id: PacketId,
    stored: Stored,
    /// Informed marking: the peer reported this packet lost.
    dead: bool,
}

#[derive(Debug)]
struct Slot {
    /// Bumped every time the slot is freed; stale handles miss.
    gen: u32,
    data: Option<SlotData>,
}

/// Handle to a slot at a specific generation (what the FIFO queue and
/// the fingerprint table hold instead of packet ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct SlotRef {
    index: u32,
    gen: u32,
}

/// Bucketized open-addressing `fingerprint → (slot, gen, offset)` table
/// with no per-entry deletion (cleared only on flush/grow).
///
/// Keys and values live in *separate* arrays (SoA): a probe chain walks
/// only the packed 8-byte key words, and the value array is touched
/// exactly once, on a hit or at the insert position. Slots are grouped
/// into [`FpTable::GROUP`]-slot buckets — eight 8-byte keys span exactly
/// one 64-byte cache line, so a probe group resolves (hit, miss, or
/// empty-slot insert) with a single line fill in the common case, and
/// displaced keys spill to the *next group* rather than the next slot,
/// which keeps chains short at the same load factor. The encoder's scan
/// issues one lookup per sampled window — on fresh traffic almost all of
/// them misses into a table far larger than L2 — so the probe path's
/// cache footprint is what bounds single-shard encode throughput, and
/// [`FpTable::prefetch`] lets the batched scan pull a candidate's key
/// line while earlier probes resolve. A table probes only a cache-sized
/// prefix of its arrays until that prefix fills (see
/// [`FpTable::spread`]), so a cache that indexes a few thousand
/// fingerprints never touches the rest.
#[derive(Debug)]
struct FpTable {
    /// `fp | TAG` for occupied slots, 0 for empty ones. Fingerprints
    /// are 53-bit (see [`bytecache_rabin::FINGERPRINT_BITS`]), so the
    /// tag bit cannot collide with a key, and a zero fingerprint is
    /// still distinguishable from an empty slot.
    keys: Vec<u64>,
    vals: Vec<FpValue>,
    /// log2 of the number of bucket groups in use: the *active* region,
    /// the first `2^log2_groups × GROUP` slots of the arrays. Every
    /// probe, the load rule and the dirty record follow this size, and
    /// every key word past it is zero.
    log2_groups: u32,
    /// log2 of the number of bucket groups the arrays hold. New and
    /// cleared tables use a cache-sized prefix of it (see
    /// [`PREFIX_LOG2_GROUPS`](Self::PREFIX_LOG2_GROUPS)).
    log2_capacity: u32,
    len: usize,
    /// Groups written since the last clear, so [`clear`](Self::clear)
    /// can zero only their key lines. Nothing deletes single entries
    /// and `insert` takes a group's first empty slot, so a group's
    /// occupied slots are always a prefix: an insert into slot 0 is the
    /// first write to an empty group, and that is when the group is
    /// recorded. Recording stops at [`dirty_cap`](Self::dirty_cap)
    /// entries; a full record means "assume everything is written".
    dirty: Vec<usize>,
}

#[derive(Debug, Clone, Copy, Default)]
struct FpValue {
    slot: SlotRef,
    offset: u16,
}

/// A dropped [`FpTable`]'s arrays, kept for the next table of the same
/// size built on the same thread. The key array is all zero (the table
/// was cleared before it was put here); the value array holds stale
/// values, which are never read under an empty key.
struct SpareTable {
    log2_capacity: u32,
    keys: Vec<u64>,
    vals: Vec<FpValue>,
}

thread_local! {
    /// This thread's spare tables, at most [`FpTable::MAX_SPARES`].
    static SPARE_TABLES: RefCell<Vec<SpareTable>> = const { RefCell::new(Vec::new()) };
}

impl FpTable {
    /// Slots per bucket group: 8 × 8-byte keys = one 64-byte cache line.
    const GROUP: usize = 8;
    /// 128 initial groups = 1024 slots, the previous flat-table size.
    const INITIAL_LOG2_GROUPS: u32 = 7;
    /// Upper clamp on the budget-derived initial size: 2^17 groups =
    /// 1 Mi slots × (8 B key + 12 B value) = 20 MiB of table. The
    /// default 32 MiB payload budget at `sample_bits = 4` implies ~2 M
    /// steady-state entries, so the clamp still under-sizes the true
    /// steady state (growth handles the rest); it bounds the eager
    /// allocation a short-lived encoder — a sim node, a test — pays at
    /// the first construction on its thread. It does not bound what
    /// such an encoder probes: that is the
    /// [`PREFIX_LOG2_GROUPS`](Self::PREFIX_LOG2_GROUPS) prefix until
    /// the table holds ~24.6 k keys.
    const MAX_INITIAL_LOG2_GROUPS: u32 = 17;
    /// Active size of a new or cleared table whose capacity is larger:
    /// 2^12 groups = 32 Ki slots, 640 KiB of keys and values, which
    /// stays in the last-level cache. When it reaches the 3/4 load rule
    /// (~24.6 k keys) one in-place rehash spreads it over the whole
    /// capacity ([`spread`](Self::spread)).
    const PREFIX_LOG2_GROUPS: u32 = 12;
    /// Occupancy tag on key words (bit 63; fingerprints fit in 53 bits).
    const TAG: u64 = 1 << 63;
    /// Most dropped tables one thread keeps for reuse: one encoder and
    /// one decoder cache, what every simulated transfer builds. A larger
    /// stock holds memory that later allocations of other kinds cannot
    /// use; two spares at the clamp are 40 MiB per thread.
    const MAX_SPARES: usize = 2;

    /// Minimal table at the un-budgeted initial size (tests exercise
    /// growth from here; production tables start from
    /// [`for_budget`](Self::for_budget)).
    #[cfg(test)]
    fn new() -> Self {
        Self::with_log2_groups(Self::INITIAL_LOG2_GROUPS)
    }

    /// Table pre-sized for its steady state. A cache holding
    /// `byte_budget` payload bytes indexes about `byte_budget >>
    /// sample_bits` fingerprints (the sampler admits one window per
    /// 2^sample_bits positions in expectation), and the table never
    /// shrinks, so every long-lived encoder reaches that size anyway.
    /// Allocating it up front removes the doubling rehashes from the
    /// hot path — each one re-inserts every live key, and the cumulative
    /// rehash work (~1.5 re-inserts per net insert) was the single
    /// largest per-candidate cost in the batched profile. Clamped so
    /// small sim configs stay small: the default 32 MiB budget hits the
    /// 2^17-group clamp, 20 MiB of table per cache (8 MiB of keys and
    /// 12 MiB of values). Only the first table of a size on a thread
    /// writes all of that; later ones reuse a dropped table's arrays
    /// (see [`with_log2_groups`](Self::with_log2_groups)). The size
    /// bounds the table, not what it probes: until it holds ~24.6 k
    /// keys a table uses only its first
    /// 2^[`PREFIX_LOG2_GROUPS`](Self::PREFIX_LOG2_GROUPS) groups, and
    /// then spreads over all of them at once, so a short transfer never
    /// leaves the cache and a long one pays no doubling rehashes.
    fn for_budget(byte_budget: usize, sample_bits: u32) -> Self {
        let entries = byte_budget >> sample_bits.min(63);
        // Groups sized for a 3/4 load factor at `entries`.
        let groups = (entries / Self::GROUP).saturating_mul(4) / 3;
        let log2 = (groups.max(1).ilog2() + 1)
            .clamp(Self::INITIAL_LOG2_GROUPS, Self::MAX_INITIAL_LOG2_GROUPS);
        Self::with_log2_groups(log2)
    }

    /// Empty table with room for `2^log2_capacity` groups, of which the
    /// first 2^[`PREFIX_LOG2_GROUPS`](Self::PREFIX_LOG2_GROUPS) (or
    /// all, if fewer) are active. A spare of exactly this capacity dropped
    /// earlier on this thread is reused: its key array is already zero
    /// and values under empty keys are never read, so it behaves
    /// exactly like a fresh table and construction writes nothing.
    /// Otherwise both arrays are allocated and written here.
    #[allow(clippy::slow_vector_initialization)] // the "slow" path is the point: see below
    fn with_log2_groups(log2_capacity: u32) -> Self {
        let spare = SPARE_TABLES
            .try_with(|spares| {
                let mut spares = spares.borrow_mut();
                let i = spares
                    .iter()
                    .position(|t| t.log2_capacity == log2_capacity)?;
                Some(spares.swap_remove(i))
            })
            .ok()
            .flatten();
        let (keys, vals) = match spare {
            Some(t) => (t.keys, t.vals),
            None => {
                let slots = (1usize << log2_capacity) * Self::GROUP;
                // Build the key array with an explicit resize (a real
                // memset) rather than `vec![0; n]`: the latter takes the
                // zeroed-alloc fast path, whose pages are mapped lazily
                // and would be first-touch-faulted from inside the probe
                // hot loop instead of here at construction.
                let mut keys = Vec::with_capacity(slots);
                keys.resize(slots, 0);
                (keys, vec![FpValue::default(); slots])
            }
        };
        FpTable {
            keys,
            vals,
            log2_groups: Self::initial_log2_groups(log2_capacity),
            log2_capacity,
            len: 0,
            dirty: Vec::new(),
        }
    }

    /// Active size of a new or cleared table of `2^log2_capacity`
    /// groups: the prefix, or the whole table if it is no larger.
    #[inline]
    fn initial_log2_groups(log2_capacity: u32) -> u32 {
        log2_capacity.min(Self::PREFIX_LOG2_GROUPS)
    }

    /// Slots in the active region.
    #[inline]
    fn active_slots(&self) -> usize {
        (1usize << self.log2_groups) * Self::GROUP
    }

    /// Most groups [`dirty`](Self::dirty) records: one in eight of the
    /// active region. Past that the epoch has written a large share of
    /// it, so `clear` falls back to one sequential pass over the active
    /// key words; the bound also keeps the record of a table that never
    /// flushes small (one word per eight groups).
    #[inline]
    fn dirty_cap(&self) -> usize {
        (1usize << self.log2_groups) / 8
    }

    /// Home bucket group of a fingerprint. The Fibonacci multiply mixes
    /// the sampler-zeroed low bits; the *high* bits of the product pick
    /// the group.
    #[inline]
    fn group(&self, fp: u64) -> usize {
        (fp.wrapping_mul(FIB) >> (64 - self.log2_groups)) as usize
    }

    /// Pull the key and value lines of `fp`'s home group toward the
    /// cache ahead of the probe. These are plain (black-boxed) loads,
    /// not intrinsics — the crate forbids `unsafe` — but they have the
    /// same effect: the 64-byte key group (and the start of its value
    /// group, which a hit or an insert will touch) is in flight while
    /// the caller resolves earlier candidates, so by the time
    /// [`get`](Self::get) or [`insert`](Self::insert) runs, the lines
    /// have usually landed. Purely a performance hint; no observable
    /// state changes.
    #[inline]
    fn prefetch(&self, fp: u64) {
        let base = self.group(fp) * Self::GROUP;
        std::hint::black_box(self.keys[base]);
        std::hint::black_box(self.vals[base].offset);
    }

    /// Write `key` and `value` into the empty slot `i` of group `g`,
    /// recording the group if this is its first write since the last
    /// clear (slot 0: occupied slots are always a prefix of a group).
    #[inline]
    fn fill_slot(&mut self, g: usize, i: usize, key: u64, value: FpValue) {
        if i == g * Self::GROUP && self.dirty.len() < self.dirty_cap() {
            self.dirty.push(g);
        }
        self.keys[i] = key;
        self.vals[i] = value;
    }

    /// Insert or overwrite; returns `true` when the key already existed
    /// (the paper's replacement event).
    fn insert(&mut self, fp: u64, slot: SlotRef, offset: u16) -> bool {
        debug_assert_eq!(fp & Self::TAG, 0, "fingerprints are 53-bit");
        if (self.len + 1) * 4 > self.active_slots() * 3 {
            if self.log2_groups < self.log2_capacity {
                self.spread();
            } else {
                self.grow();
            }
        }
        let gmask = (1usize << self.log2_groups) - 1;
        let key = fp | Self::TAG;
        let value = FpValue { slot, offset };
        let mut g = self.group(fp);
        loop {
            let base = g * Self::GROUP;
            for i in base..base + Self::GROUP {
                let k = self.keys[i];
                if k == 0 {
                    self.fill_slot(g, i, key, value);
                    self.len += 1;
                    return false;
                }
                if k == key {
                    self.vals[i] = value;
                    return true;
                }
            }
            g = (g + 1) & gmask;
        }
    }

    fn get(&self, fp: u64) -> Option<(SlotRef, u16)> {
        let gmask = (1usize << self.log2_groups) - 1;
        let key = fp | Self::TAG;
        let mut g = self.group(fp);
        loop {
            let base = g * Self::GROUP;
            for i in base..base + Self::GROUP {
                let k = self.keys[i];
                if k == 0 {
                    return None;
                }
                if k == key {
                    let v = self.vals[i];
                    return Some((v.slot, v.offset));
                }
            }
            g = (g + 1) & gmask;
        }
    }

    /// Spread a full prefix over the whole allocation, in place and in
    /// one step. The group index is a key's high hash bits, so a key
    /// whose prefix home is group `h` has its new home in
    /// `h << shift .. (h + 1) << shift`: new homes run in the same order
    /// as old ones, and at or above them. The pass walks the prefix
    /// groups from the top down; each group is copied out and zeroed,
    /// and its keys are placed by a forward probe from their new home.
    /// Every group at or above the current one is already in the new
    /// layout and every group below it is untouched, so a key whose new
    /// home lies below the current group, or whose probe would wrap
    /// past the last group, is set aside and inserted once the pass is
    /// done. Those are rare: a spill longer than `2^shift` groups, or a
    /// full run at the top of the table. The mapping is unchanged, so
    /// no lookup can tell a spread table from one that was always this
    /// size.
    fn spread(&mut self) {
        let prefix_groups = 1usize << self.log2_groups;
        self.log2_groups = self.log2_capacity;
        let slots = self.active_slots();
        // The placements below rebuild the record for the new size.
        self.dirty.clear();
        let mut deferred = Vec::new();
        for g in (0..prefix_groups).rev() {
            let base = g * Self::GROUP;
            let mut keys = [0u64; Self::GROUP];
            keys.copy_from_slice(&self.keys[base..base + Self::GROUP]);
            let mut vals = [FpValue::default(); Self::GROUP];
            vals.copy_from_slice(&self.vals[base..base + Self::GROUP]);
            self.keys[base..base + Self::GROUP].fill(0);
            for (&key, &value) in keys.iter().zip(&vals).take_while(|(&k, _)| k != 0) {
                // Groups are contiguous, so the first empty slot from the
                // home group's start to the end of the table is where a
                // forward group probe would stop.
                let home = self.group(key & !Self::TAG);
                let empty = (home >= g)
                    .then(|| (home * Self::GROUP..slots).find(|&i| self.keys[i] == 0))
                    .flatten();
                match empty {
                    Some(i) => self.fill_slot(i / Self::GROUP, i, key, value),
                    None => deferred.push((key, value)),
                }
            }
        }
        self.len -= deferred.len();
        for (key, value) in deferred {
            self.insert(key & !Self::TAG, value.slot, value.offset);
        }
    }

    /// Double the allocation and rehash into it: the table outgrew its
    /// capacity (the prefix has already been spread).
    fn grow(&mut self) {
        let slots = (1usize << (self.log2_capacity + 1)) * Self::GROUP;
        let old_keys = std::mem::replace(&mut self.keys, vec![0; slots]);
        let old_vals = std::mem::replace(&mut self.vals, vec![FpValue::default(); slots]);
        self.log2_capacity += 1;
        self.log2_groups = self.log2_capacity;
        self.len = 0;
        // The re-inserts below rebuild the record for the new table.
        self.dirty.clear();
        // The rehash reads the old arrays sequentially. Because the
        // group index is the fingerprint's high bits, it writes the new
        // table nearly in order too: old group g splits into new groups
        // 2g and 2g + 1, and only keys that spilled past their home
        // group (or wrapped around the end) land out of order. Issuing
        // each key's target-group prefetch a few iterations early
        // covers those — the rehash is the bulk of the amortized
        // insert cost.
        const AHEAD: usize = 16;
        for i in 0..old_keys.len() {
            if let Some(&k) = old_keys.get(i + AHEAD) {
                if k != 0 {
                    self.prefetch(k & !Self::TAG);
                }
            }
            let k = old_keys[i];
            if k != 0 {
                let v = old_vals[i];
                self.insert(k & !Self::TAG, v.slot, v.offset);
            }
        }
    }

    /// Drop every entry but keep the allocation: the table is pre-sized
    /// for its steady state (see [`for_budget`](Self::for_budget)), and
    /// a flush-heavy policy would otherwise re-pay the growth rehashes
    /// after every flush. Only the key words gate occupancy, so the
    /// value array need not be touched. The cost follows the groups
    /// written since the last clear, not the table size: only the
    /// recorded groups' key lines are zeroed, unless the record is
    /// full, and then only the active region is. Either way the key
    /// array ends all zero, and the table returns to its prefix.
    fn clear(&mut self) {
        if self.dirty.len() < self.dirty_cap() {
            for &g in &self.dirty {
                let base = g * Self::GROUP;
                self.keys[base..base + Self::GROUP].fill(0);
            }
        } else {
            let active = self.active_slots();
            self.keys[..active].fill(0);
        }
        self.dirty.clear();
        self.len = 0;
        self.log2_groups = Self::initial_log2_groups(self.log2_capacity);
    }
}

impl Drop for FpTable {
    /// Clear the table and keep its arrays as one of this thread's
    /// spares, if there is room. A table grown past the largest size
    /// [`for_budget`](Self::for_budget) asks for could never be handed
    /// out again, so it is freed. So is every table dropped while the
    /// thread exits, once its spares are gone.
    fn drop(&mut self) {
        if self.log2_capacity > Self::MAX_INITIAL_LOG2_GROUPS {
            return;
        }
        let _ = SPARE_TABLES.try_with(|spares| {
            let mut spares = spares.borrow_mut();
            if spares.len() < Self::MAX_SPARES {
                self.clear();
                spares.push(SpareTable {
                    log2_capacity: self.log2_capacity,
                    keys: std::mem::take(&mut self.keys),
                    vals: std::mem::take(&mut self.vals),
                });
            }
        });
    }
}

/// Open-addressing `packet id → slot index` table with linear probing
/// and backward-shift deletion (ids leave the table on every eviction,
/// so tombstones would accumulate).
#[derive(Debug)]
struct IdTable {
    entries: Vec<IdEntry>,
    log2: u32,
    len: usize,
}

#[derive(Debug, Clone, Copy, Default)]
struct IdEntry {
    key: u64,
    slot: u32,
    used: bool,
}

impl IdTable {
    const INITIAL_LOG2: u32 = 6;

    fn new() -> Self {
        IdTable {
            entries: vec![IdEntry::default(); 1 << Self::INITIAL_LOG2],
            log2: Self::INITIAL_LOG2,
            len: 0,
        }
    }

    #[inline]
    fn bucket(&self, key: u64) -> usize {
        (key.wrapping_mul(FIB) >> (64 - self.log2)) as usize
    }

    fn insert(&mut self, key: u64, slot: u32) {
        if (self.len + 1) * 4 > self.entries.len() * 3 {
            self.grow();
        }
        let mask = self.entries.len() - 1;
        let mut i = self.bucket(key);
        loop {
            let e = &mut self.entries[i];
            if !e.used {
                *e = IdEntry {
                    key,
                    slot,
                    used: true,
                };
                self.len += 1;
                return;
            }
            if e.key == key {
                e.slot = slot;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    fn get(&self, key: u64) -> Option<u32> {
        let mask = self.entries.len() - 1;
        let mut i = self.bucket(key);
        loop {
            let e = &self.entries[i];
            if !e.used {
                return None;
            }
            if e.key == key {
                return Some(e.slot);
            }
            i = (i + 1) & mask;
        }
    }

    fn remove(&mut self, key: u64) {
        let mask = self.entries.len() - 1;
        let mut i = self.bucket(key);
        loop {
            let e = &self.entries[i];
            if !e.used {
                return; // absent
            }
            if e.key == key {
                break;
            }
            i = (i + 1) & mask;
        }
        self.len -= 1;
        // Backward-shift deletion: pull displaced entries into the hole
        // so probe chains stay contiguous without tombstones.
        let mut j = i;
        loop {
            self.entries[i].used = false;
            loop {
                j = (j + 1) & mask;
                if !self.entries[j].used {
                    return;
                }
                let home = self.bucket(self.entries[j].key);
                // The entry at j may fill the hole at i only if its home
                // bucket does not lie cyclically between i (exclusive)
                // and j (inclusive).
                if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(i) & mask) {
                    self.entries[i] = self.entries[j];
                    i = j;
                    break;
                }
            }
        }
    }

    fn grow(&mut self) {
        let old = std::mem::replace(
            &mut self.entries,
            vec![IdEntry::default(); 1 << (self.log2 + 1)],
        );
        self.log2 += 1;
        self.len = 0;
        for e in old {
            if e.used {
                self.insert(e.key, e.slot);
            }
        }
    }

    fn clear(&mut self) {
        *self = IdTable::new();
    }
}

/// Packet store + fingerprint index under one budget.
#[derive(Debug)]
pub struct Cache {
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// FIFO of live insertions; stale refs (generation mismatch) are
    /// skipped during eviction.
    order: VecDeque<SlotRef>,
    ids: IdTable,
    fingerprints: FpTable,
    /// Scratch for [`index_payload`](Self::index_payload): the sampled
    /// pairs of the payload being indexed, and the kernel's lane
    /// buffers. Capacity is kept across packets.
    sampled: Vec<(u16, u64)>,
    lanes: LaneScratch,
    bytes_used: usize,
    byte_budget: usize,
    max_packets: Option<usize>,
    live: usize,
    next_id: u64,
    flow_counters: FlowMap,
    stats: CacheStats,
    telemetry: Recorder,
}

impl Cache {
    /// Empty cache with the configuration's budgets.
    #[must_use]
    pub fn new(config: &DreConfig) -> Self {
        Cache {
            slots: Vec::new(),
            free: Vec::new(),
            order: VecDeque::new(),
            ids: IdTable::new(),
            fingerprints: FpTable::for_budget(config.cache_bytes, config.sample_bits),
            sampled: Vec::new(),
            lanes: LaneScratch::default(),
            bytes_used: 0,
            byte_budget: config.cache_bytes,
            max_packets: config.max_packets,
            live: 0,
            next_id: 0,
            flow_counters: FlowMap::default(),
            stats: CacheStats::default(),
            telemetry: Recorder::disabled(),
        }
    }

    /// Counters.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Enable or disable telemetry (eviction events, evicted-byte
    /// histogram). Disabled — the default — costs one branch per
    /// eviction.
    pub fn set_telemetry_enabled(&mut self, enabled: bool) {
        self.telemetry.set_enabled(enabled);
    }

    /// Tag this cache's telemetry with a shard index.
    pub fn set_telemetry_shard(&mut self, shard: u32) {
        self.telemetry.set_shard(shard);
    }

    /// The live telemetry recorder (events recorded so far).
    #[must_use]
    pub fn telemetry(&self) -> &Recorder {
        &self.telemetry
    }

    /// A telemetry snapshot: the live event data plus the cache's
    /// counters (`cache.*`) and occupancy gauges at snapshot time.
    /// Empty when telemetry is disabled.
    #[must_use]
    pub fn telemetry_snapshot(&self) -> Recorder {
        if !self.telemetry.is_enabled() {
            return Recorder::disabled();
        }
        let mut rec = self.telemetry.clone();
        rec.count("cache.inserts", self.stats.inserts);
        rec.count("cache.evictions", self.stats.evictions);
        rec.count("cache.replacements", self.stats.replacements);
        rec.count("cache.flushes", self.stats.flushes);
        rec.count("cache.index_skips", self.stats.index_skips);
        rec.gauge("cache.bytes_used", self.bytes_used as u64);
        rec.gauge("cache.entries", self.live as u64);
        rec
    }

    /// Number of packets currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Payload bytes currently stored.
    #[must_use]
    pub fn bytes_used(&self) -> usize {
        self.bytes_used
    }

    /// The id the next [`insert`](Self::insert) will assign.
    #[must_use]
    pub fn next_id(&self) -> PacketId {
        PacketId(self.next_id)
    }

    /// The flow index the next packet of `flow` will receive.
    #[must_use]
    pub fn flow_index(&self, flow: &FlowId) -> u64 {
        self.flow_counters.get(flow).copied().unwrap_or(0)
    }

    /// Insert a packet with an auto-assigned id (encoder side).
    pub fn insert(&mut self, payload: Bytes, flow: FlowId, seq: SeqNum) -> PacketId {
        let id = PacketId(self.next_id);
        self.next_id += 1;
        self.insert_with_id(id, payload, flow, seq);
        id
    }

    /// Insert a packet under an externally assigned id (decoder side,
    /// adopting the encoder's shim id).
    pub fn insert_with_id(&mut self, id: PacketId, payload: Bytes, flow: FlowId, seq: SeqNum) {
        let counter = self.flow_counters.entry(flow).or_insert(0);
        let flow_index = *counter;
        *counter += 1;
        let meta = EntryMeta {
            flow,
            seq,
            seq_end: seq + payload.len(),
            flow_index,
        };
        // The protocol never reuses a live id, but if a caller does, the
        // new copy wins and the old one is released (no byte leak).
        if let Some(old_slot) = self.ids.get(id.0) {
            self.release(old_slot);
        }
        self.bytes_used += payload.len();
        let index = self.alloc(SlotData {
            id,
            stored: Stored { payload, meta },
            dead: false,
        });
        let gen = self.slots[index as usize].gen;
        self.ids.insert(id.0, index);
        self.order.push_back(SlotRef { index, gen });
        self.live += 1;
        self.next_id = self.next_id.max(id.0 + 1);
        self.stats.inserts += 1;
        self.evict_to_budget();
    }

    fn alloc(&mut self, data: SlotData) -> u32 {
        if let Some(index) = self.free.pop() {
            self.slots[index as usize].data = Some(data);
            index
        } else {
            self.slots.push(Slot {
                gen: 0,
                data: Some(data),
            });
            (self.slots.len() - 1) as u32
        }
    }

    /// Free a slot: drop its packet, bump its generation (invalidating
    /// every outstanding handle) and recycle it.
    fn release(&mut self, index: u32) {
        let slot = &mut self.slots[index as usize];
        let Some(data) = slot.data.take() else {
            return;
        };
        slot.gen = slot.gen.wrapping_add(1);
        self.bytes_used -= data.stored.payload.len();
        self.live -= 1;
        self.ids.remove(data.id.0);
        self.free.push(index);
    }

    fn evict_to_budget(&mut self) {
        while self.bytes_used > self.byte_budget
            || self.max_packets.is_some_and(|cap| self.live > cap)
        {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            let slot = &self.slots[oldest.index as usize];
            if slot.gen == oldest.gen {
                if let Some(data) = &slot.data {
                    if self.telemetry.is_enabled() {
                        let bytes = data.stored.payload.len() as u64;
                        let id = data.id.0;
                        self.telemetry
                            .event(Event::new(EventKind::Eviction).details(id, bytes));
                        self.telemetry.record("cache.evicted_bytes", bytes);
                    }
                    self.release(oldest.index);
                    self.stats.evictions += 1;
                }
            }
            // Stale refs (the slot was already released by an id
            // overwrite) are simply discarded.
        }
    }

    /// Index one representative fingerprint of packet `id` at `offset`.
    /// Replaces any existing entry for the fingerprint (the paper's
    /// update rule).
    pub fn index_fingerprint(&mut self, fingerprint: u64, id: PacketId, offset: u16) {
        // A non-resident id still shadows the previous entry (as the
        // paper's index does): record a handle that can never resolve.
        let slot = self.ids.get(id.0).map_or(
            SlotRef {
                index: u32::MAX,
                gen: u32::MAX,
            },
            |index| SlotRef {
                index,
                gen: self.slots[index as usize].gen,
            },
        );
        if self.fingerprints.insert(fingerprint, slot, offset) {
            self.stats.replacements += 1;
        }
    }

    /// Run the paper's *cache update procedure* for packet `id`: slide
    /// the window over its payload and index every sampled fingerprint.
    ///
    /// The decoder (which never scans for matches), the encoder when a
    /// policy suppresses encoding or in the two-pass mode, and
    /// migration import all index through here. The payload runs
    /// through the multi-lane kernel
    /// ([`Fingerprinter::scan_sampled_batched`]) into this cache's
    /// scratch list, which is then inserted with the same lookahead
    /// prefetching as [`index_sampled`](Self::index_sampled), the
    /// encoder's path for pairs its batched scan already collected.
    ///
    /// If `id` is no longer stored — a payload larger than the cache
    /// budget is evicted by its own insert, and a peer can evict a
    /// packet between store and index under divergence repair — the
    /// pass is skipped and counted (`skipped`, `CacheStats.index_skips`)
    /// rather than aborting the shard.
    pub fn index_payload(
        &mut self,
        engine: &Fingerprinter,
        sampler: &Sampler,
        id: PacketId,
    ) -> IndexOutcome {
        let Some(slot) = self.resident_slot(id) else {
            return self.skip_index();
        };
        let payload: &[u8] = &self.slots[slot.index as usize]
            .data
            .as_ref()
            .expect("live slot")
            .stored
            .payload;
        let mut sampled = std::mem::take(&mut self.sampled);
        sampled.clear();
        engine.scan_sampled_batched(payload, sampler, &mut self.lanes, |pos, fp| {
            sampled.push((pos as u16, fp));
        });
        let windows = (payload.len() + 1).saturating_sub(engine.window_size()) as u64;
        let out = IndexOutcome {
            windows,
            sampled: sampled.len() as u64,
            ..self.insert_sampled(slot, &sampled)
        };
        self.sampled = sampled;
        out
    }

    /// Index packet `id` from fingerprints already sampled by the
    /// encoder's batched scan: insert each `(offset, fingerprint)` pair,
    /// in order, under the packet's slot. Produces exactly the
    /// fingerprint-table state [`index_payload`](Self::index_payload)
    /// would — the pairs are the sampled windows of the payload in
    /// increasing offset order — without touching the payload again.
    ///
    /// If `id` is no longer stored (see [`index_payload`]
    /// (Self::index_payload)), the pass is skipped and counted rather
    /// than aborting the shard.
    pub fn index_sampled(&mut self, id: PacketId, sampled: &[(u16, u64)]) -> IndexOutcome {
        match self.resident_slot(id) {
            Some(slot) => self.insert_sampled(slot, sampled),
            None => self.skip_index(),
        }
    }

    /// The slot handle of packet `id`, if it is still stored.
    fn resident_slot(&self, id: PacketId) -> Option<SlotRef> {
        let index = self.ids.get(id.0)?;
        Some(SlotRef {
            index,
            gen: self.slots[index as usize].gen,
        })
    }

    /// Count an indexing pass skipped because its packet is gone.
    fn skip_index(&mut self) -> IndexOutcome {
        self.stats.index_skips += 1;
        IndexOutcome {
            skipped: 1,
            ..IndexOutcome::default()
        }
    }

    /// Insert sampled `(offset, fingerprint)` pairs under `slot`, in
    /// order.
    fn insert_sampled(&mut self, slot: SlotRef, sampled: &[(u16, u64)]) -> IndexOutcome {
        // Insert with lookahead prefetching, as the batched scan's
        // probe loop does: the candidates are random fingerprints, so
        // nearly every insert opens a cold group unless its lines are
        // already in flight. Inserts do less work per candidate than
        // probes, so the distance is twice the scan's (8 and 32 were
        // measured too: neither was faster on both gateway replay and
        // lossy transfers).
        const AHEAD: usize = 16;
        for &(_, fp) in sampled.iter().take(AHEAD) {
            self.fingerprints.prefetch(fp);
        }
        for (i, &(offset, fp)) in sampled.iter().enumerate() {
            if let Some(&(_, next_fp)) = sampled.get(i + AHEAD) {
                self.fingerprints.prefetch(next_fp);
            }
            if self.fingerprints.insert(fp, slot, offset) {
                self.stats.replacements += 1;
            }
        }
        IndexOutcome {
            insertions: sampled.len() as u64,
            ..IndexOutcome::default()
        }
    }

    /// Hint that a [`lookup`](Self::lookup) /
    /// [`lookup_entry`](Self::lookup_entry) for `fingerprint` is coming
    /// soon: pull its fingerprint-table key line toward the cache so
    /// the probe resolves without a demand miss. Used by the encoder's
    /// batched scan, which knows its candidate fingerprints several
    /// iterations ahead of the probes.
    #[inline]
    pub fn prefetch_fingerprint(&self, fingerprint: u64) {
        self.fingerprints.prefetch(fingerprint);
    }

    /// Second-stage scan prefetch: resolve `fingerprint` through the
    /// (by now cache-resident) fingerprint table and pull the slot and
    /// the referenced stored-payload line toward the cache. A hit in
    /// the probe loop immediately dereferences both for match
    /// extension, and those two dependent loads are otherwise demand
    /// misses on the serial path. Purely a hint: stale generations and
    /// dead entries are prefetched harmlessly and re-checked by the
    /// real lookup.
    #[inline]
    pub fn prefetch_candidate(&self, fingerprint: u64) {
        if let Some((slot, offset)) = self.fingerprints.get(fingerprint) {
            if let Some(s) = self.slots.get(slot.index as usize) {
                if let Some(data) = s.data.as_ref() {
                    let payload: &[u8] = &data.stored.payload;
                    if let Some(&b) = payload.get(usize::from(offset)) {
                        std::hint::black_box(b);
                    }
                }
            }
        }
    }

    fn resolve(&self, slot: SlotRef) -> Option<&SlotData> {
        let s = self.slots.get(slot.index as usize)?;
        if s.gen != slot.gen {
            return None; // stale: the packet left the store
        }
        s.data.as_ref()
    }

    /// Look up a fingerprint: the stored packet it points to (if that
    /// packet is still resident) and the window offset within it.
    #[must_use]
    pub fn lookup(&self, fingerprint: u64) -> Option<(PacketId, u16, &Stored)> {
        let (id, offset, stored, _) = self.lookup_entry(fingerprint)?;
        Some((id, offset, stored))
    }

    /// Like [`lookup`](Self::lookup) but also reports the entry's
    /// dead mark, saving the scan hot path a second id-table probe
    /// (the mark lives in the slot the lookup already resolved).
    #[must_use]
    pub fn lookup_entry(&self, fingerprint: u64) -> Option<(PacketId, u16, &Stored, bool)> {
        let (slot, offset) = self.fingerprints.get(fingerprint)?;
        let data = self.resolve(slot)?;
        Some((data.id, offset, &data.stored, data.dead))
    }

    /// Borrow a stored packet by id.
    #[must_use]
    pub fn packet(&self, id: PacketId) -> Option<&Stored> {
        let index = self.ids.get(id.0)?;
        Some(&self.slots[index as usize].data.as_ref()?.stored)
    }

    /// Iterate the live packets in insertion (FIFO) order, oldest
    /// first, yielding each exactly once (stale queue refs left behind
    /// by eviction are skipped). This is the cache-migration export
    /// order: re-inserting the yielded packets into a fresh cache
    /// reproduces both the contents and the eviction order. Stale
    /// fingerprint-index entries are *not* reproduced, which is
    /// behaviorally equivalent — a stale entry resolves to a miss here,
    /// and the encoder's mirrored table carries the same staleness so it
    /// never emits a match token against one.
    pub fn iter_in_order(&self) -> impl Iterator<Item = (PacketId, &Stored)> + '_ {
        self.order
            .iter()
            .filter_map(|&slot| self.resolve(slot).map(|data| (data.id, &data.stored)))
    }

    /// Mark a packet as lost at the peer (informed marking): it will be
    /// reported by [`is_dead`](Self::is_dead) until evicted.
    pub fn mark_dead(&mut self, id: PacketId) {
        if let Some(index) = self.ids.get(id.0) {
            if let Some(data) = self.slots[index as usize].data.as_mut() {
                data.dead = true;
            }
        }
    }

    /// Whether a packet was marked dead.
    #[must_use]
    pub fn is_dead(&self, id: PacketId) -> bool {
        self.ids
            .get(id.0)
            .and_then(|index| self.slots[index as usize].data.as_ref())
            .is_some_and(|data| data.dead)
    }

    /// Drop all packets and fingerprints (the Cache Flush policy's
    /// action). Ids and per-flow indices keep counting monotonically.
    pub fn flush(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.order.clear();
        self.ids.clear();
        self.fingerprints.clear();
        self.bytes_used = 0;
        self.live = 0;
        self.stats.flushes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytecache_rabin::Polynomial;
    use std::net::Ipv4Addr;

    fn flow() -> FlowId {
        FlowId {
            src: Ipv4Addr::new(10, 0, 0, 1),
            src_port: 80,
            dst: Ipv4Addr::new(10, 0, 0, 2),
            dst_port: 4000,
        }
    }

    fn cache() -> Cache {
        Cache::new(&DreConfig::default())
    }

    #[test]
    fn insert_assigns_sequential_ids_and_flow_indices() {
        let mut c = cache();
        let a = c.insert(Bytes::from_static(b"aaaa"), flow(), SeqNum::new(1));
        let b = c.insert(Bytes::from_static(b"bbbb"), flow(), SeqNum::new(5));
        assert_eq!(a, PacketId(0));
        assert_eq!(b, PacketId(1));
        assert_eq!(c.packet(a).unwrap().meta.flow_index, 0);
        assert_eq!(c.packet(b).unwrap().meta.flow_index, 1);
        assert_eq!(c.packet(b).unwrap().meta.seq_end, SeqNum::new(9));
        assert_eq!(c.len(), 2);
        assert_eq!(c.bytes_used(), 8);
    }

    #[test]
    fn flow_indices_are_per_flow() {
        let mut c = cache();
        let other = FlowId {
            src_port: 81,
            ..flow()
        };
        c.insert(Bytes::from_static(b"x"), flow(), SeqNum::new(0));
        c.insert(Bytes::from_static(b"y"), other, SeqNum::new(0));
        let b = c.insert(Bytes::from_static(b"z"), other, SeqNum::new(1));
        assert_eq!(c.packet(b).unwrap().meta.flow_index, 1);
        assert_eq!(c.flow_index(&flow()), 1);
        assert_eq!(c.flow_index(&other), 2);
    }

    #[test]
    fn fingerprint_lookup_and_replacement() {
        let mut c = cache();
        let a = c.insert(Bytes::from_static(b"first"), flow(), SeqNum::new(0));
        let b = c.insert(Bytes::from_static(b"second"), flow(), SeqNum::new(5));
        c.index_fingerprint(0xF00, a, 3);
        let (id, off, stored) = c.lookup(0xF00).unwrap();
        assert_eq!((id, off), (a, 3));
        assert_eq!(&stored.payload[..], b"first");
        // Replacement points the fingerprint at the newer packet.
        c.index_fingerprint(0xF00, b, 1);
        let (id, off, stored) = c.lookup(0xF00).unwrap();
        assert_eq!((id, off), (b, 1));
        assert_eq!(&stored.payload[..], b"second");
        assert_eq!(c.stats().replacements, 1);
    }

    #[test]
    fn lookup_of_evicted_packet_is_none() {
        let mut c = Cache::new(&DreConfig {
            max_packets: Some(2),
            ..DreConfig::default()
        });
        let a = c.insert(Bytes::from_static(b"aa"), flow(), SeqNum::new(0));
        c.index_fingerprint(7, a, 0);
        c.insert(Bytes::from_static(b"bb"), flow(), SeqNum::new(2));
        c.insert(Bytes::from_static(b"cc"), flow(), SeqNum::new(4));
        assert_eq!(c.len(), 2);
        assert!(c.lookup(7).is_none(), "entry must die with its packet");
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn byte_budget_evicts_oldest_first() {
        let mut c = Cache::new(&DreConfig {
            cache_bytes: 10,
            ..DreConfig::default()
        });
        let a = c.insert(Bytes::from_static(b"12345"), flow(), SeqNum::new(0));
        let b = c.insert(Bytes::from_static(b"67890"), flow(), SeqNum::new(5));
        assert_eq!(c.bytes_used(), 10);
        let d = c.insert(Bytes::from_static(b"x"), flow(), SeqNum::new(10));
        assert!(c.packet(a).is_none(), "oldest evicted");
        assert!(c.packet(b).is_some());
        assert!(c.packet(d).is_some());
        assert_eq!(c.bytes_used(), 6);
    }

    #[test]
    fn index_payload_indexes_sampled_windows() {
        let engine = Fingerprinter::new(Polynomial::default(), 8);
        let sampler = Sampler::new(2);
        let mut c = cache();
        let data: Bytes = (0..300u32)
            .map(|i| (i * 7 % 251) as u8)
            .collect::<Vec<_>>()
            .into();
        let id = c.insert(data.clone(), flow(), SeqNum::new(0));
        c.index_payload(&engine, &sampler, id);
        // Every sampled window must resolve back to this packet at the
        // right offset.
        for (off, fp) in engine.windows(&data) {
            if sampler.selects(fp) {
                let (pid, stored_off, _) = c.lookup(fp).expect("indexed");
                assert_eq!(pid, id);
                // Duplicate content may alias offsets; the window content
                // at the stored offset must at least equal this window.
                let so = stored_off as usize;
                assert_eq!(&data[so..so + 8], &data[off..off + 8]);
            }
        }
    }

    #[test]
    fn index_sampled_equals_index_payload() {
        let engine = Fingerprinter::new(Polynomial::default(), 8);
        let sampler = Sampler::new(2);
        let data: Bytes = (0..400u32)
            .map(|i| (i * 13 % 251) as u8)
            .collect::<Vec<_>>()
            .into();
        // Cache A: full indexing pass. Cache B: pre-sampled pairs.
        let mut a = cache();
        let ida = a.insert(data.clone(), flow(), SeqNum::new(0));
        let outcome_a = a.index_payload(&engine, &sampler, ida);
        let mut b = cache();
        let idb = b.insert(data.clone(), flow(), SeqNum::new(0));
        let pairs: Vec<(u16, u64)> = engine
            .windows(&data)
            .filter(|&(_, fp)| sampler.selects(fp))
            .map(|(off, fp)| (off as u16, fp))
            .collect();
        let outcome_b = b.index_sampled(idb, &pairs);
        assert_eq!(outcome_a.insertions, outcome_b.insertions);
        assert_eq!(outcome_a.sampled, pairs.len() as u64);
        assert_eq!(outcome_a.windows, (data.len() - 7) as u64);
        assert_eq!(a.stats().replacements, b.stats().replacements);
        // Identical lookup results for every sampled window.
        for (off, fp) in &pairs {
            let (pa, oa, _) = a.lookup(*fp).expect("indexed in A");
            let (pb, ob, _) = b.lookup(*fp).expect("indexed in B");
            assert_eq!((pa, oa), (ida, ob));
            assert_eq!(pb, idb);
            let _ = off;
        }
    }

    #[test]
    fn lookup_entry_reports_dead_mark() {
        let mut c = cache();
        let a = c.insert(Bytes::from_static(b"payload"), flow(), SeqNum::new(0));
        c.index_fingerprint(0xAA0, a, 0);
        let (_, _, _, dead) = c.lookup_entry(0xAA0).unwrap();
        assert!(!dead);
        c.mark_dead(a);
        let (_, _, _, dead) = c.lookup_entry(0xAA0).unwrap();
        assert!(dead);
    }

    #[test]
    fn flush_clears_but_keeps_counters() {
        let mut c = cache();
        let a = c.insert(Bytes::from_static(b"data"), flow(), SeqNum::new(0));
        c.index_fingerprint(1, a, 0);
        c.mark_dead(a);
        c.flush();
        assert!(c.is_empty());
        assert!(c.lookup(1).is_none());
        assert!(!c.is_dead(a));
        assert_eq!(c.stats().flushes, 1);
        // Ids and flow indices continue, they never rewind.
        let b = c.insert(Bytes::from_static(b"next"), flow(), SeqNum::new(4));
        assert_eq!(b, PacketId(1));
        assert_eq!(c.packet(b).unwrap().meta.flow_index, 1);
    }

    #[test]
    fn dead_marks_require_residency_and_clear_on_eviction() {
        let mut c = Cache::new(&DreConfig {
            max_packets: Some(1),
            ..DreConfig::default()
        });
        c.mark_dead(PacketId(99));
        assert!(!c.is_dead(PacketId(99)), "unknown packets cannot be dead");
        let a = c.insert(Bytes::from_static(b"a"), flow(), SeqNum::new(0));
        c.mark_dead(a);
        assert!(c.is_dead(a));
        c.insert(Bytes::from_static(b"b"), flow(), SeqNum::new(1));
        assert!(!c.is_dead(a), "eviction clears the dead mark");
    }

    #[test]
    fn insert_with_external_id_advances_next_id() {
        let mut c = cache();
        c.insert_with_id(
            PacketId(10),
            Bytes::from_static(b"x"),
            flow(),
            SeqNum::new(0),
        );
        assert_eq!(c.next_id(), PacketId(11));
        let b = c.insert(Bytes::from_static(b"y"), flow(), SeqNum::new(1));
        assert_eq!(b, PacketId(11));
    }

    #[test]
    fn slot_reuse_never_resolves_stale_fingerprints() {
        // Evict a packet, insert a new one into the recycled slot, and
        // verify the old fingerprint entry does not resolve to the new
        // packet (the generation check).
        let mut c = Cache::new(&DreConfig {
            max_packets: Some(1),
            ..DreConfig::default()
        });
        let a = c.insert(Bytes::from_static(b"old-old-old"), flow(), SeqNum::new(0));
        c.index_fingerprint(0xAB, a, 2);
        let b = c.insert(Bytes::from_static(b"new-new-new"), flow(), SeqNum::new(11));
        assert!(c.packet(a).is_none());
        assert!(c.packet(b).is_some(), "new packet resident in reused slot");
        assert!(
            c.lookup(0xAB).is_none(),
            "stale entry must not alias the recycled slot"
        );
        // Re-pointing the fingerprint at the live packet works.
        c.index_fingerprint(0xAB, b, 1);
        let (id, off, _) = c.lookup(0xAB).unwrap();
        assert_eq!((id, off), (b, 1));
    }

    #[test]
    fn duplicate_id_insert_replaces_without_leaking() {
        let mut c = cache();
        let id = PacketId(5);
        c.insert_with_id(id, Bytes::from_static(b"aaaaaaaa"), flow(), SeqNum::new(0));
        c.insert_with_id(id, Bytes::from_static(b"bb"), flow(), SeqNum::new(8));
        assert_eq!(c.len(), 1, "the newer copy wins");
        assert_eq!(c.bytes_used(), 2);
        assert_eq!(&c.packet(id).unwrap().payload[..], b"bb");
    }

    #[test]
    fn tables_survive_many_inserts_and_evictions() {
        // Stress growth + backward-shift deletion with a small window.
        let mut c = Cache::new(&DreConfig {
            max_packets: Some(64),
            ..DreConfig::default()
        });
        for i in 0..5000u64 {
            let payload: Bytes = vec![(i % 251) as u8; 32].into();
            let id = c.insert(payload, flow(), SeqNum::new((i * 32) as u32));
            c.index_fingerprint(i.wrapping_mul(0x1000) ^ 0xBEEF, id, 0);
        }
        assert_eq!(c.len(), 64);
        assert_eq!(c.stats().evictions, 5000 - 64);
        // Exactly the last 64 ids are resident.
        for i in 0..5000u64 {
            assert_eq!(c.packet(PacketId(i)).is_some(), i >= 5000 - 64, "id {i}");
        }
        // And their fingerprints resolve while older ones are stale.
        for i in 0..5000u64 {
            let hit = c.lookup(i.wrapping_mul(0x1000) ^ 0xBEEF).is_some();
            assert_eq!(hit, i >= 5000 - 64, "fp of id {i}");
        }
    }

    #[test]
    fn oversized_payload_index_is_skipped_not_panicking() {
        // A payload bigger than the byte budget is evicted by its own
        // insert; the indexing pass that follows must skip (and count)
        // rather than panic.
        let engine = Fingerprinter::new(Polynomial::default(), 8);
        let sampler = Sampler::new(0);
        let mut c = Cache::new(&DreConfig {
            cache_bytes: 16,
            ..DreConfig::default()
        });
        let id = c.insert(vec![7u8; 64].into(), flow(), SeqNum::new(0));
        assert!(c.packet(id).is_none(), "evicted by its own insert");
        let a = c.index_payload(&engine, &sampler, id);
        assert_eq!((a.skipped, a.insertions, a.windows), (1, 0, 0));
        let b = c.index_sampled(id, &[(0, 0x123), (5, 0x456)]);
        assert_eq!((b.skipped, b.insertions), (1, 0));
        assert_eq!(c.stats().index_skips, 2);
        assert!(c.lookup(0x123).is_none(), "no entries for a skipped pass");
    }

    #[test]
    fn fp_table_bucketized_groups_resolve_and_spill() {
        // Fill well past several grow cycles; every key must resolve to
        // its latest value, including keys displaced into later groups.
        let mut t = FpTable::new();
        let n = 6000u64;
        for i in 0..n {
            let fp = i.wrapping_mul(0x9E37_79B9) & ((1 << 53) - 1);
            t.prefetch(fp); // exercise the hint path; must be a no-op
            let slot = SlotRef {
                index: i as u32,
                gen: 0,
            };
            assert!(!t.insert(fp, slot, (i % 1000) as u16), "fresh key {i}");
        }
        for i in 0..n {
            let fp = i.wrapping_mul(0x9E37_79B9) & ((1 << 53) - 1);
            let (slot, off) = t.get(fp).expect("present");
            assert_eq!((slot.index, off), (i as u32, (i % 1000) as u16));
        }
        // Overwrites report the replacement and win the lookup.
        let fp0 = 0u64;
        let slot = SlotRef { index: 99, gen: 3 };
        assert!(t.insert(fp0, slot, 77));
        let (s, off) = t.get(fp0).unwrap();
        assert_eq!((s.index, s.gen, off), (99, 3, 77));
        assert!(t.get(0xDEAD_BEEF_CAFE).is_none());
    }

    /// Occupied slots as `(key, slot, offset)`, for comparing tables.
    fn fp_occupied(t: &FpTable) -> Vec<(u64, SlotRef, u16)> {
        t.keys
            .iter()
            .zip(&t.vals)
            .filter(|(&k, _)| k != 0)
            .map(|(&k, v)| (k, v.slot, v.offset))
            .collect()
    }

    #[test]
    fn fp_table_clear_matches_model_and_fresh_table() {
        // Random insert/get/clear phases against a HashMap model. Phase
        // lengths cycle through three sizes so every clear path runs:
        // a few inserts (partial clear of the recorded groups), a few
        // hundred (record full: whole-array fallback), and a few
        // thousand (the table grows between clears). After each clear
        // the table must be empty down to the last key word and then
        // evolve exactly like a fresh table of the same size.
        let mut state = 0x5EED_F1A5_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mask = (1u64 << 53) - 1;
        let mut t = FpTable::new();
        let mut fresh = FpTable::new();
        let mut model: HashMap<u64, (SlotRef, u16)> = HashMap::new();
        let (mut partial, mut fallback, mut grown) = (0, 0, 0);
        for phase in 0..45u64 {
            let n = match phase % 3 {
                0 => next() % 12,
                1 => 40 + next() % 300,
                _ => 800 + next() % 1500,
            };
            let log2_before = t.log2_groups;
            let mut phase_keys = Vec::new();
            for _ in 0..n {
                // One insert in four overwrites a key of this phase; the
                // zero fingerprint is a legal key too.
                let fp = match next() % 8 {
                    0 | 1 if !phase_keys.is_empty() => {
                        phase_keys[(next() % phase_keys.len() as u64) as usize]
                    }
                    2 if phase % 5 == 0 => 0,
                    _ => next() & mask,
                };
                phase_keys.push(fp);
                let slot = SlotRef {
                    index: next() as u32,
                    gen: next() as u32,
                };
                let offset = next() as u16;
                let existed = model.insert(fp, (slot, offset)).is_some();
                assert_eq!(t.insert(fp, slot, offset), existed, "fp {fp:#x}");
                assert_eq!(fresh.insert(fp, slot, offset), existed, "fp {fp:#x}");
                let probe = next() & mask;
                assert_eq!(t.get(probe), model.get(&probe).copied());
            }
            assert_eq!(t.len, model.len());
            for (&fp, &v) in &model {
                assert_eq!(t.get(fp), Some(v), "fp {fp:#x}");
            }
            // Same inserts since the last clear, same size: identical
            // key arrays and identical values wherever a key is set.
            // (Values under empty keys are never read; neither clear
            // path touches them.)
            assert_eq!(t.log2_groups, fresh.log2_groups);
            assert!(t.keys == fresh.keys, "phase {phase}: key arrays differ");
            assert_eq!(fp_occupied(&t), fp_occupied(&fresh), "phase {phase}");

            if t.log2_groups > log2_before {
                grown += 1;
            }
            if t.dirty.len() < t.dirty_cap() {
                partial += 1;
            } else {
                fallback += 1;
            }
            t.clear();
            model.clear();
            assert!(t.keys.iter().all(|&k| k == 0), "phase {phase}: stale keys");
            assert_eq!(t.len, 0);
            assert!(t.dirty.is_empty());
            for &fp in &phase_keys {
                assert!(t.get(fp).is_none(), "fp {fp:#x} survived the clear");
            }
            fresh = FpTable::with_log2_groups(t.log2_capacity);
        }
        assert!(partial > 0, "no partial clear ran");
        assert!(fallback > 0, "no whole-array clear ran");
        assert!(grown > 0, "the table never grew between clears");
    }

    /// Runs `f` on a new thread, whose stock of spare tables starts
    /// empty whatever earlier tests left on the calling thread.
    fn on_new_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
        std::thread::scope(|s| s.spawn(f).join().expect("test thread panicked"))
    }

    fn spare_sizes() -> Vec<u32> {
        SPARE_TABLES.with(|s| s.borrow().iter().map(|t| t.log2_capacity).collect())
    }

    #[test]
    fn fp_table_recycles_dropped_tables_on_the_same_thread() {
        // 1024 groups: the dirty record holds 128 of them.
        const LOG2: u32 = 10;
        let ops = |n: u64, salt: u64| -> Vec<(u64, SlotRef, u16)> {
            (0..n)
                .map(|i| {
                    let fp = (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
                    let slot = SlotRef {
                        index: i as u32,
                        gen: salt as u32,
                    };
                    (fp, slot, i as u16)
                })
                .collect()
        };
        let apply = |t: &mut FpTable, ops: &[(u64, SlotRef, u16)]| {
            for &(fp, slot, offset) in ops {
                t.insert(fp, slot, offset);
            }
        };
        on_new_thread(|| {
            // 600 random inserts touch ~450 groups (record full: the
            // drop clears with one fill); 20 touch at most 20 (partial).
            for (n, full) in [(600, true), (20, false)] {
                let mut t = FpTable::with_log2_groups(LOG2);
                apply(&mut t, &ops(n, 1));
                assert_eq!(t.dirty.len() == t.dirty_cap(), full, "n = {n}");
                let keys = t.keys.as_ptr();
                drop(t);
                assert_eq!(spare_sizes(), [LOG2]);

                let mut r = FpTable::with_log2_groups(LOG2);
                assert_eq!(r.keys.as_ptr(), keys, "n = {n}: allocation not reused");
                assert!(spare_sizes().is_empty());
                assert!(r.keys.iter().all(|&k| k == 0), "n = {n}: stale keys");
                assert_eq!(r.len, 0);
                assert!(r.dirty.is_empty());
                // Different inserts from the first table's, so a stale
                // key would also show as a difference here.
                let second = ops(n, 2);
                apply(&mut r, &second);
                let (fresh_keys, fresh_occupied) = on_new_thread(|| {
                    let mut f = FpTable::with_log2_groups(LOG2);
                    apply(&mut f, &second);
                    (f.keys.clone(), fp_occupied(&f))
                });
                assert!(r.keys == fresh_keys, "n = {n}: key arrays differ");
                assert_eq!(fp_occupied(&r), fresh_occupied, "n = {n}");
            }
            // The loop's last table is now the only spare. A table of
            // another size must not take it.
            assert_eq!(spare_sizes(), [LOG2]);
            let other = FpTable::with_log2_groups(LOG2 + 1);
            assert_eq!(other.keys.len(), 2 * (1 << LOG2) * FpTable::GROUP);
            assert_eq!(spare_sizes(), [LOG2]);
            drop(other);
            assert_eq!(spare_sizes(), [LOG2, LOG2 + 1]);
            // The stock is capped: further drops free their tables.
            let tables: Vec<FpTable> = (0..4).map(|_| FpTable::with_log2_groups(LOG2)).collect();
            assert_eq!(spare_sizes(), [LOG2 + 1]);
            drop(tables);
            assert_eq!(spare_sizes().len(), FpTable::MAX_SPARES);
        });
    }

    #[test]
    fn fp_table_drop_during_thread_exit_does_not_panic() {
        use std::sync::atomic::{AtomicBool, Ordering};
        static SPARES_GONE: AtomicBool = AtomicBool::new(false);
        /// Drops its table from a thread-local destructor, after the
        /// spare stock (registered later, destroyed first) is gone.
        struct Holder(Option<FpTable>);
        impl Drop for Holder {
            fn drop(&mut self) {
                SPARES_GONE.store(SPARE_TABLES.try_with(|_| ()).is_err(), Ordering::SeqCst);
                self.0.take();
            }
        }
        thread_local! {
            static HOLDER: RefCell<Holder> = const { RefCell::new(Holder(None)) };
        }
        on_new_thread(|| {
            HOLDER.with(|_| ());
            drop(FpTable::with_log2_groups(FpTable::INITIAL_LOG2_GROUPS));
            let t = FpTable::with_log2_groups(FpTable::INITIAL_LOG2_GROUPS);
            HOLDER.with(|h| h.borrow_mut().0 = Some(t));
        });
        assert!(
            SPARES_GONE.load(Ordering::SeqCst),
            "the table was dropped before the spare stock was destroyed"
        );
    }

    #[test]
    fn fp_table_prefix_spreads_in_one_jump_and_matches_model() {
        // Capacity one doubling above the prefix, so the jump doubles
        // the active size and every prefix group splits in two.
        const LOG2: u32 = FpTable::PREFIX_LOG2_GROUPS + 1;
        const GROUP: usize = FpTable::GROUP;
        type Model = HashMap<u64, (SlotRef, u16)>;
        let mut state = 0x00C0_FFEE_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mask = (1u64 << 53) - 1;
        let insert = |t: &mut FpTable, model: &mut Model, fp: u64, v: u64| {
            let slot = SlotRef {
                index: v as u32,
                gen: (v >> 32) as u32,
            };
            let offset = (v >> 16) as u16;
            let existed = model.insert(fp, (slot, offset)).is_some();
            assert_eq!(t.insert(fp, slot, offset), existed, "fp {fp:#x}");
        };
        let check = |t: &FpTable, model: &Model, step: &str| {
            assert_eq!(t.len, model.len(), "{step}");
            for (&fp, &v) in model {
                assert_eq!(t.get(fp), Some(v), "{step}: fp {fp:#x}");
            }
            assert!(
                t.keys[t.active_slots()..].iter().all(|&k| k == 0),
                "{step}: a key outside the active region"
            );
        };
        let slot_of = |t: &FpTable, fp: u64| t.keys.iter().position(|&k| k == fp | FpTable::TAG);
        // Keys whose home at full size is the last group, which makes
        // the last prefix group their home in the prefix as well.
        let last = (1u64 << LOG2) - 1;
        let mut top = Vec::new();
        while top.len() < GROUP + 2 {
            let fp = next() & mask;
            if fp.wrapping_mul(FIB) >> (64 - LOG2) == last {
                top.push(fp);
            }
        }
        on_new_thread(move || {
            let mut t = FpTable::with_log2_groups(LOG2);
            let mut model = Model::new();
            assert_eq!(t.log2_groups, FpTable::PREFIX_LOG2_GROUPS);
            check(&t, &model, "new");

            // 1. Fill the prefix to the load rule, the top keys first:
            // eight fill the last prefix group and two spill past it,
            // wrapping into group 0.
            for &fp in &top {
                let v = next();
                insert(&mut t, &mut model, fp, v);
            }
            for &fp in &top[GROUP..] {
                assert!(slot_of(&t, fp).unwrap() < GROUP, "top key did not wrap");
            }
            let full = t.active_slots() * 3 / 4;
            let mut recent = Vec::new();
            while t.len < full {
                let fp = match next() % 8 {
                    0 if !recent.is_empty() => recent[(next() % recent.len() as u64) as usize],
                    _ => next() & mask,
                };
                recent.push(fp);
                let v = next();
                insert(&mut t, &mut model, fp, v);
            }
            assert_eq!(t.log2_groups, FpTable::PREFIX_LOG2_GROUPS);
            check(&t, &model, "prefix full");

            // 2. The next new key spreads the prefix over the whole
            // table. The top keys' new home is the last group, which the
            // eight from the last prefix group fill first; the two from
            // group 0 come last, find it full, and are deferred: they
            // wrap to the start of the table.
            let (fp, v) = (next() & mask, next());
            insert(&mut t, &mut model, fp, v);
            assert_eq!(t.log2_groups, LOG2);
            check(&t, &model, "after the jump");
            for &fp in &top[..GROUP] {
                assert_eq!(slot_of(&t, fp).unwrap() / GROUP, last as usize);
            }
            for &fp in &top[GROUP..] {
                let slot = slot_of(&t, fp).unwrap();
                assert!(slot < t.active_slots() / 2, "deferred key at slot {slot}");
            }

            // 3. Inserts after the jump, some of them overwrites.
            for _ in 0..5000 {
                let fp = match next() % 8 {
                    0 => recent[(next() % recent.len() as u64) as usize],
                    _ => next() & mask,
                };
                let v = next();
                insert(&mut t, &mut model, fp, v);
            }
            assert_eq!(t.log2_groups, LOG2);
            check(&t, &model, "after the jump, inserts");

            // 4. A clear empties the whole table and returns it to the
            // prefix, which then works like a new table's.
            t.clear();
            model.clear();
            assert_eq!(t.log2_groups, FpTable::PREFIX_LOG2_GROUPS);
            assert!(t.keys.iter().all(|&k| k == 0), "stale keys after clear");
            check(&t, &model, "cleared");
            for _ in 0..2000 {
                let (fp, v) = (next() & mask, next());
                insert(&mut t, &mut model, fp, v);
            }
            check(&t, &model, "cleared, inserts");

            // 5. Drop, and rebuild from the spare.
            let keys = t.keys.as_ptr();
            drop(t);
            let mut t = FpTable::with_log2_groups(LOG2);
            assert_eq!(t.keys.as_ptr(), keys, "allocation not reused");
            assert_eq!(t.log2_groups, FpTable::PREFIX_LOG2_GROUPS);
            assert!(t.keys.iter().all(|&k| k == 0), "stale keys in the spare");
            model.clear();
            check(&t, &model, "rebuilt");
            for _ in 0..2000 {
                let (fp, v) = (next() & mask, next());
                insert(&mut t, &mut model, fp, v);
            }
            check(&t, &model, "rebuilt, inserts");
        });
    }

    /// The scalar indexing loop [`Cache::index_payload`] used before it
    /// went through the multi-lane kernel, kept as the reference it is
    /// tested against: one rolling chain, inserting each sampled window
    /// as it is reached.
    fn index_payload_reference(
        c: &mut Cache,
        engine: &Fingerprinter,
        sampler: &Sampler,
        id: PacketId,
    ) -> IndexOutcome {
        let Some(slot) = c.resident_slot(id) else {
            return c.skip_index();
        };
        let payload = c.slots[slot.index as usize]
            .data
            .as_ref()
            .expect("live slot")
            .stored
            .payload
            .clone();
        let mut out = IndexOutcome::default();
        let Some(mut fp) = engine.prime(&payload) else {
            return out;
        };
        let w = engine.window_size();
        let mut pos = 0usize;
        let mut roll_bytes = payload.iter().zip(payload[w..].iter());
        loop {
            if sampler.selects(fp) {
                out.sampled += 1;
                out.insertions += 1;
                if c.fingerprints.insert(fp, slot, pos as u16) {
                    c.stats.replacements += 1;
                }
            }
            match roll_bytes.next() {
                Some((&outgoing, &incoming)) => {
                    fp = engine.roll(fp, outgoing, incoming);
                    pos += 1;
                }
                None => break,
            }
        }
        out.windows = (payload.len() - w + 1) as u64;
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// `index_payload` (multi-lane kernel, then prefetched inserts)
        /// and the scalar reference agree on every payload length from
        /// 0 to 600, across windows whose `8 × window` kernel cut-over
        /// falls inside that range: the same `IndexOutcome`, the same
        /// replacement count, and the same lookup result for every
        /// sampled window. Small alphabets make windows repeat, so
        /// replacements happen; every 50th length also indexes a packet
        /// that is not stored.
        #[test]
        fn index_payload_matches_scalar_reference(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 600..=600),
            window in 4usize..=64,
            sample_bits in 0u32..=5,
            alphabet in 2u16..=256,
            poly_seed in 0u64..4,
        ) {
            let data: Bytes = bytes
                .iter()
                .map(|&b| (u16::from(b) % alphabet) as u8)
                .collect::<Vec<u8>>()
                .into();
            let config = DreConfig {
                window,
                sample_bits,
                cache_bytes: 1 << 20,
                polynomial_seed: poly_seed,
                ..DreConfig::default()
            };
            let engine = Fingerprinter::new(Polynomial::generate(poly_seed), window);
            let sampler = Sampler::new(sample_bits);
            let mut a = Cache::new(&config);
            let mut b = Cache::new(&config);
            for len in 0..=600usize {
                let payload = data.slice(..len);
                let ida = a.insert(payload.clone(), flow(), SeqNum::new(0));
                let idb = b.insert(payload.clone(), flow(), SeqNum::new(0));
                proptest::prop_assert_eq!(ida, idb);
                let got = a.index_payload(&engine, &sampler, ida);
                let want = index_payload_reference(&mut b, &engine, &sampler, idb);
                proptest::prop_assert_eq!(got, want, "len {}", len);
                proptest::prop_assert_eq!(a.stats(), b.stats(), "len {}", len);
                for (_, fp) in engine.windows(&payload).filter(|&(_, fp)| sampler.selects(fp)) {
                    let la = a.lookup(fp).map(|(id, off, _)| (id, off));
                    let lb = b.lookup(fp).map(|(id, off, _)| (id, off));
                    proptest::prop_assert!(la.is_some(), "len {}: fp {:#x} not indexed", len, fp);
                    proptest::prop_assert_eq!(la, lb, "len {}: fp {:#x}", len, fp);
                }
                if len % 50 == 0 {
                    let gone = PacketId(u64::MAX);
                    let got = a.index_payload(&engine, &sampler, gone);
                    let want = index_payload_reference(&mut b, &engine, &sampler, gone);
                    proptest::prop_assert_eq!(got, want);
                    proptest::prop_assert_eq!(got.skipped, 1);
                }
            }
            proptest::prop_assert_eq!(a.fingerprints.len, b.fingerprints.len);
        }
    }

    proptest::proptest! {
        /// The IdTable (linear probing + backward-shift deletion) agrees
        /// with a BTreeMap model under random insert/remove/lookup
        /// interleavings. The backward-shift condition at
        /// [`IdTable::remove`] is the invariant under attack: a wrong
        /// cyclic-range comparison silently breaks probe chains, making
        /// live keys unreachable.
        #[test]
        fn id_table_matches_btreemap_model(
            ops in proptest::collection::vec((0u8..3, 0u64..48, proptest::prelude::any::<u32>()), 1..400),
        ) {
            use std::collections::BTreeMap;
            let mut table = IdTable::new();
            let mut model: BTreeMap<u64, u32> = BTreeMap::new();
            for (op, key, slot) in ops {
                match op {
                    0 => {
                        table.insert(key, slot);
                        model.insert(key, slot);
                    }
                    1 => {
                        table.remove(key);
                        model.remove(&key);
                    }
                    _ => {
                        proptest::prop_assert_eq!(table.get(key), model.get(&key).copied());
                    }
                }
            }
            // Full sweep: every key in the domain agrees at the end.
            for key in 0..48u64 {
                proptest::prop_assert_eq!(table.get(key), model.get(&key).copied(), "key {}", key);
            }
            proptest::prop_assert_eq!(table.len, model.len());
        }
    }
}
