//! Bounded cache of LSTM encoder states keyed by token prefix.
//!
//! The frozen LSTM's packed `[h | c]` state after step `t` depends only on
//! the model and `tokens[0..=t]` (see [`hwpr_nn::infer::FrozenLstm`]), so
//! a state computed for one architecture is exactly the state any other
//! architecture with the same token prefix would recompute. Search
//! offspring share long prefixes with earlier architectures — mutation
//! changes one position, crossover mixes two similar parents — so the
//! frozen encoder looks up each row's longest cached prefix and resumes
//! the recurrence there instead of at step 0.
//!
//! A key is the prefix length plus the prefix tokens packed 4 bits each
//! into one `u128`, compared exactly; a value is the per-layer `[h | c]`
//! rows of one architecture. Entries live in two generations, each a
//! state slab plus an open-addressing index table, together sized to at
//! most [`PREFIX_CACHE_GENERATION_BYTES`]. A generation maps both from
//! the operating system at its first insert and unmaps them when the
//! engine drops: pages become resident only as entries are written, and
//! a dropped engine's states go straight back to the system instead of
//! staying in an allocator arena where the next model's training cannot
//! reuse them (DESIGN.md §3m has the measurements).
//! Inserts go to the current generation; when it is full it becomes the
//! previous one and the old previous one is cleared. Lookups read both.
//! The cache belongs to one compiled engine, so a recompiled or
//! hot-swapped model starts cold and no key ever crosses models.

use hwpr_nasbench::tokens::{MAX_SEQUENCE_LEN, VOCAB_SIZE};
use parking_lot::Mutex;
use zeroed::Zeroed;

/// Bytes one generation may occupy: its state slab plus its index table.
/// Two generations make the cache's whole footprint.
pub const PREFIX_CACHE_GENERATION_BYTES: usize = 8 << 20;

/// Bits per packed token.
const TOKEN_BITS: usize = 4;
/// The prefix length sits in the key's top byte, above the tokens.
const LEN_SHIFT: usize = 120;
/// Longest prefix a key can hold.
const KEY_TOKENS: usize = LEN_SHIFT / TOKEN_BITS;

const _: () = assert!(VOCAB_SIZE <= 1 << TOKEN_BITS, "a token must fit in 4 bits");
const _: () = assert!(
    MAX_SEQUENCE_LEN <= KEY_TOKENS,
    "every sequence must fit in one key"
);

/// Index-table bytes per slot: one `u128` key plus one `u32` entry number.
const SLOT_BYTES: usize = 16 + 4;

/// Writes into `keys[t]` the key of `tokens[..=t]`, or 0 (never a valid
/// key: lengths start at 1) once the prefix holds a token that does not
/// fit in 4 bits or is longer than a key can hold. Such prefixes are
/// never cached.
pub(crate) fn prefix_keys(tokens: &[usize], keys: &mut [u128]) {
    let mut packed = 0u128;
    let mut packable = true;
    for (t, (&tok, key)) in tokens.iter().zip(keys.iter_mut()).enumerate() {
        packable &= t < KEY_TOKENS && tok < 1 << TOKEN_BITS;
        *key = if packable {
            packed |= (tok as u128) << (t * TOKEN_BITS);
            packed | ((t + 1) as u128) << LEN_SHIFT
        } else {
            0
        };
    }
}

/// Occupancy and footprint of a prefix-state cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixCacheStats {
    /// Entries held across both generations.
    pub entries: usize,
    /// Entries one generation holds before it is retired.
    pub capacity: usize,
    /// Bytes mapped by both generations' slabs and index tables (a bound
    /// on what is resident); never above `2 ·`
    /// [`PREFIX_CACHE_GENERATION_BYTES`].
    pub resident_bytes: usize,
    /// Times the current generation filled and replaced the previous one.
    pub flips: u64,
}

impl std::ops::Add for PrefixCacheStats {
    type Output = Self;

    fn add(self, other: Self) -> Self {
        Self {
            entries: self.entries + other.entries,
            capacity: self.capacity + other.capacity,
            resident_bytes: self.resident_bytes + other.resident_bytes,
            flips: self.flips + other.flips,
        }
    }
}

/// A cached state found by [`PrefixReader::longest`]: valid while that
/// reader's lock is held.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Hit {
    /// Prefix length, i.e. the step the row resumes at.
    pub len: usize,
    previous: bool,
    entry: u32,
}

/// One generation: a slab of states plus a linear-probing index, all
/// three mapped at the generation's first insert.
#[derive(Debug)]
struct Generation {
    /// Entry states, `width` values each, in insertion order.
    slab: Zeroed<f32>,
    /// Key per table slot; 0 marks an empty slot.
    keys: Zeroed<u128>,
    /// Entry number per occupied table slot.
    entries: Zeroed<u32>,
    len: usize,
}

/// The index slot a key's probe starts at, in a table of `table` slots
/// (a power of two, the same for both generations).
fn home_slot(key: u128, table: usize) -> usize {
    let folded = (key as u64) ^ ((key >> 64) as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    (folded.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (table - 1)
}

impl Generation {
    /// An empty generation; nothing is mapped until its first insert.
    fn new() -> Self {
        Self {
            slab: Zeroed::new(0),
            keys: Zeroed::new(0),
            entries: Zeroed::new(0),
            len: 0,
        }
    }

    /// Probes linearly from `home`: `Ok(entry)` when `key` is held,
    /// otherwise `Err(slot)` with the empty slot that ended the probe.
    fn probe(&self, key: u128, home: usize) -> Result<u32, usize> {
        if self.len == 0 {
            return Err(home);
        }
        let mask = self.keys.len() - 1;
        let mut slot = home;
        loop {
            match self.keys[slot] {
                0 => return Err(slot),
                k if k == key => return Ok(self.entries[slot]),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Appends an entry at the empty `slot` its probe ended on, first
    /// mapping room for `capacity` states and a `table`-slot index if this
    /// is the generation's first entry. The caller keeps `len` below
    /// capacity, so the table stays at most half full.
    fn push(&mut self, (capacity, table): (usize, usize), slot: usize, key: u128, state: &[f32]) {
        let width = state.len();
        if self.keys.is_empty() {
            self.slab = Zeroed::new(capacity * width);
            self.keys = Zeroed::new(table);
            self.entries = Zeroed::new(table);
        }
        self.keys[slot] = key;
        self.entries[slot] = self.len as u32;
        self.slab[self.len * width..(self.len + 1) * width].copy_from_slice(state);
        self.len += 1;
    }

    fn state(&self, entry: u32, width: usize) -> &[f32] {
        let start = entry as usize * width;
        &self.slab[start..start + width]
    }

    fn clear(&mut self) {
        self.keys.fill(0);
        self.len = 0;
    }

    /// Bytes mapped (not necessarily resident yet).
    fn mapped_bytes(&self) -> usize {
        self.slab.len() * 4 + self.keys.len() * 16 + self.entries.len() * 4
    }
}

#[derive(Debug)]
struct Generations {
    current: Generation,
    previous: Generation,
    flips: u64,
}

/// The two-generation prefix-state cache of one frozen LSTM encoder.
#[derive(Debug)]
pub(crate) struct PrefixStateCache {
    /// Values per state: `layers · 2·hidden`.
    width: usize,
    /// Entries per generation.
    capacity: usize,
    /// Index-table slots per generation: a power of two, at least
    /// `2 · capacity`.
    table: usize,
    generations: Mutex<Generations>,
}

impl PrefixStateCache {
    /// A cache for states of `width` values, sized to
    /// [`PREFIX_CACHE_GENERATION_BYTES`] per generation.
    pub(crate) fn new(width: usize) -> Self {
        Self::with_budget(width, PREFIX_CACHE_GENERATION_BYTES)
    }

    /// A cache whose generations each fit in `budget` bytes: the largest
    /// capacity whose slab plus index table fits.
    fn with_budget(width: usize, budget: usize) -> Self {
        let bytes = |capacity: usize| {
            capacity * width * 4 + (2 * capacity).next_power_of_two() * SLOT_BYTES
        };
        // the table holds at least two slots per entry
        let mut capacity = budget / (width * 4 + 2 * SLOT_BYTES).max(1);
        while capacity > 0 && bytes(capacity) > budget {
            capacity -= 1;
        }
        let table = (2 * capacity).next_power_of_two();
        Self {
            width,
            capacity,
            table,
            generations: Mutex::new(Generations {
                current: Generation::new(),
                previous: Generation::new(),
                flips: 0,
            }),
        }
    }

    /// Runs one chunk's lookups under one lock.
    pub(crate) fn read<R>(&self, lookups: impl FnOnce(&PrefixReader<'_>) -> R) -> R {
        let generations = self.generations.lock();
        lookups(&PrefixReader {
            width: self.width,
            table: self.table,
            generations: &generations,
        })
    }

    /// Inserts `keys[i]` with state `states[i·width..(i+1)·width]` for
    /// every key not already held, under one lock. A full current
    /// generation becomes the previous one first, clearing the old
    /// previous one.
    pub(crate) fn insert_all(&self, keys: &[u128], states: &[f32]) {
        debug_assert_eq!(keys.len() * self.width, states.len());
        if self.capacity == 0 || keys.is_empty() {
            return;
        }
        let mut guard = self.generations.lock();
        let gens = &mut *guard;
        for (&key, state) in keys.iter().zip(states.chunks_exact(self.width)) {
            let home = home_slot(key, self.table);
            let Err(mut slot) = gens.current.probe(key, home) else {
                continue;
            };
            if gens.previous.probe(key, home).is_ok() {
                continue;
            }
            if gens.current.len == self.capacity {
                std::mem::swap(&mut gens.current, &mut gens.previous);
                gens.current.clear();
                gens.flips += 1;
                slot = home;
            }
            gens.current
                .push((self.capacity, self.table), slot, key, state);
        }
    }

    pub(crate) fn stats(&self) -> PrefixCacheStats {
        let gens = self.generations.lock();
        PrefixCacheStats {
            entries: gens.current.len + gens.previous.len,
            capacity: self.capacity,
            resident_bytes: gens.current.mapped_bytes() + gens.previous.mapped_bytes(),
            flips: gens.flips,
        }
    }
}

/// Lookups into a [`PrefixStateCache`] under its lock.
pub(crate) struct PrefixReader<'a> {
    width: usize,
    table: usize,
    generations: &'a Generations,
}

impl PrefixReader<'_> {
    /// The longest cached prefix among `keys` (the keys of one row's
    /// prefixes, shortest first, 0 for uncacheable ones).
    pub(crate) fn longest(&self, keys: &[u128]) -> Option<Hit> {
        keys.iter().enumerate().rev().find_map(|(t, &key)| {
            if key == 0 {
                return None;
            }
            let gens = self.generations;
            let home = home_slot(key, self.table);
            let (previous, entry) = match gens.current.probe(key, home) {
                Ok(entry) => (false, entry),
                Err(_) => (true, gens.previous.probe(key, home).ok()?),
            };
            Some(Hit {
                len: t + 1,
                previous,
                entry,
            })
        })
    }

    /// The state a hit refers to: `layers · 2·hidden` values, layer-major.
    pub(crate) fn state(&self, hit: Hit) -> &[f32] {
        let generation = if hit.previous {
            &self.generations.previous
        } else {
            &self.generations.current
        };
        generation.state(hit.entry, self.width)
    }
}

/// Values whose all-zero bit pattern is a valid value, so a fresh
/// zero-filled mapping can be read as a slice of them.
trait Zeroable: Copy + Default {}

impl Zeroable for f32 {}
impl Zeroable for u32 {}
impl Zeroable for u128 {}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod zeroed {
    use super::Zeroable;
    use std::alloc::{handle_alloc_error, Layout};
    use std::ffi::c_void;
    use std::ops::{Deref, DerefMut};
    use std::ptr::NonNull;

    const PROT_READ: i32 = 0x1;
    const PROT_WRITE: i32 = 0x2;
    const MAP_PRIVATE: i32 = 0x02;
    const MAP_ANONYMOUS: i32 = 0x20;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            off: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// `len` zero-initialised values in a private anonymous mapping of
    /// their own: untouched pages cost no memory, and dropping the buffer
    /// returns every page to the system.
    pub(super) struct Zeroed<T> {
        ptr: NonNull<T>,
        len: usize,
    }

    // SAFETY: `ptr` is the only handle to the mapping and `len` is plain
    // data, so moving a `Zeroed` moves sole ownership of its values, like
    // a `Box<[T]>`; `T: Send` covers dropping and mutating them elsewhere.
    unsafe impl<T: Send> Send for Zeroed<T> {}
    // SAFETY: `&Zeroed` only hands out `&[T]`, which `T: Sync` makes
    // shareable; mutation needs `&mut Zeroed`.
    unsafe impl<T: Sync> Sync for Zeroed<T> {}

    impl<T: Zeroable> Zeroed<T> {
        pub(super) fn new(len: usize) -> Self {
            let layout = Layout::array::<T>(len).expect("buffer size overflows");
            if layout.size() == 0 {
                return Self {
                    ptr: NonNull::dangling(),
                    len,
                };
            }
            // SAFETY: a fresh anonymous private mapping at no fixed address
            // has no preconditions; failure is checked below.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    layout.size(),
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS,
                    -1,
                    0,
                )
            };
            match NonNull::new(ptr.cast::<T>()) {
                // MAP_FAILED is (void*)-1
                Some(ptr) if ptr.as_ptr() as isize != -1 => Self { ptr, len },
                _ => handle_alloc_error(layout),
            }
        }
    }

    impl<T> Deref for Zeroed<T> {
        type Target = [T];

        fn deref(&self) -> &[T] {
            // SAFETY: `ptr` is either a page-aligned mapping (aligned for
            // every `Zeroable`) of exactly `len` values that start
            // zero-filled (valid for a `Zeroable`) and lives as long as
            // `self`, or, for a zero-sized buffer, dangling but aligned
            // with `len · size_of::<T>() == 0`.
            unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
        }
    }

    impl<T> DerefMut for Zeroed<T> {
        fn deref_mut(&mut self) -> &mut [T] {
            // SAFETY: as in `deref`, and `&mut self` makes the access unique.
            unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
        }
    }

    impl<T> Drop for Zeroed<T> {
        fn drop(&mut self) {
            let bytes = self.len * std::mem::size_of::<T>();
            if bytes > 0 {
                // SAFETY: `ptr`/`bytes` is exactly the mapping `new` made,
                // and no slice of it outlives `self`.
                unsafe { munmap(self.ptr.as_ptr().cast(), bytes) };
            }
        }
    }

    impl<T> std::fmt::Debug for Zeroed<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "Zeroed({} values)", self.len)
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod zeroed {
    use super::Zeroable;
    use std::ops::{Deref, DerefMut};

    /// `len` zero-initialised values from the global allocator, on
    /// targets where no anonymous mapping is wired up.
    #[derive(Debug)]
    pub(super) struct Zeroed<T>(Box<[T]>);

    impl<T: Zeroable> Zeroed<T> {
        pub(super) fn new(len: usize) -> Self {
            Self(vec![T::default(); len].into_boxed_slice())
        }
    }

    impl<T> Deref for Zeroed<T> {
        type Target = [T];

        fn deref(&self) -> &[T] {
            &self.0
        }
    }

    impl<T> DerefMut for Zeroed<T> {
        fn deref_mut(&mut self) -> &mut [T] {
            &mut self.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys_of(tokens: &[usize]) -> Vec<u128> {
        let mut keys = vec![0; tokens.len()];
        prefix_keys(tokens, &mut keys);
        keys
    }

    fn state(width: usize, salt: usize) -> Vec<f32> {
        (0..width).map(|i| (i * 7 + salt) as f32).collect()
    }

    #[test]
    fn keys_distinguish_every_prefix_exactly() {
        let a = keys_of(&[3, 1, 4, 1, 5]);
        let b = keys_of(&[3, 1, 4, 1, 6]);
        // shared prefixes share keys, the first differing token splits them
        assert_eq!(a[..4], b[..4]);
        assert_ne!(a[4], b[4]);
        // a PAD-free prefix never collides with a longer all-zero one
        let zeros = keys_of(&[0, 0, 0]);
        assert!(zeros.iter().all(|&k| k != 0));
        assert_ne!(zeros[0], zeros[1]);
        assert_ne!(zeros[1], zeros[2]);
        // every key is distinct across lengths and token values
        let mut all: Vec<u128> = (0..VOCAB_SIZE)
            .flat_map(|tok| keys_of(&[tok; MAX_SEQUENCE_LEN]))
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
        // an unpackable token ends the cacheable prefix
        assert_eq!(keys_of(&[2, 16, 2])[1..], [0, 0]);
        let long: Vec<usize> = vec![1; KEY_TOKENS + 2];
        let keys = keys_of(&long);
        assert!(keys[KEY_TOKENS - 1] != 0 && keys[KEY_TOKENS] == 0);
    }

    #[test]
    fn lookups_return_the_longest_cached_prefix() {
        let width = 6;
        let cache = PrefixStateCache::new(width);
        let keys = keys_of(&[2, 7, 1, 8, 2, 8]);
        let other = keys_of(&[2, 7, 1, 9, 2, 8]);
        cache.insert_all(&keys[1..2], &state(width, 1));
        cache.insert_all(&keys[3..4], &state(width, 3));
        cache.read(|reader| {
            let hit = reader.longest(&keys).expect("two prefixes cached");
            assert_eq!(hit.len, 4);
            assert_eq!(reader.state(hit), state(width, 3));
            // a sibling sharing three tokens resumes at the shorter entry
            let hit = reader.longest(&other).expect("prefix of length 2 cached");
            assert_eq!(hit.len, 2);
            assert_eq!(reader.state(hit), state(width, 1));
            assert!(reader.longest(&keys_of(&[3, 7])).is_none());
        });
        // re-inserting a held key keeps the first state
        cache.insert_all(&keys[3..4], &state(width, 99));
        cache.read(|reader| {
            assert_eq!(
                reader.state(reader.longest(&keys).unwrap()),
                state(width, 3)
            );
        });
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn full_generations_retire_oldest_first() {
        let width = 4;
        // a budget for a handful of entries per generation
        let cache = PrefixStateCache::with_budget(width, 4 * (width * 4) + 16 * SLOT_BYTES);
        let capacity = cache.capacity;
        assert!(capacity >= 4, "capacity {capacity}");
        let key = |i: usize| keys_of(&[i % 16, i / 16])[1];
        let insert = |i: usize| cache.insert_all(&[key(i)], &state(width, i));
        let held = |i: usize| {
            cache.read(|reader| {
                reader
                    .longest(&[0, key(i)])
                    .map(|hit| reader.state(hit).to_vec())
            })
        };
        for i in 0..capacity {
            insert(i);
        }
        assert_eq!(cache.stats().flips, 0);
        // the next insert flips: generation one becomes the previous one
        insert(capacity);
        let stats = cache.stats();
        assert_eq!((stats.flips, stats.entries), (1, capacity + 1));
        for i in 0..=capacity {
            assert_eq!(held(i), Some(state(width, i)), "entry {i}");
        }
        // filling generation two and flipping again drops generation one
        for i in capacity + 1..2 * capacity + 1 {
            insert(i);
        }
        assert_eq!(cache.stats().flips, 2);
        for i in 0..capacity {
            assert_eq!(held(i), None, "entry {i} should be evicted");
        }
        for i in capacity..=2 * capacity {
            assert_eq!(held(i), Some(state(width, i)), "entry {i}");
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, capacity + 1);
        assert!(stats.resident_bytes <= 2 * (4 * (width * 4) + 16 * SLOT_BYTES));
    }

    #[test]
    fn generations_fit_the_byte_budget() {
        for width in [1usize, 24, 256, 900] {
            let cache = PrefixStateCache::new(width);
            assert!(cache.capacity > 0);
            let bytes = cache.capacity * width * 4 + cache.table * SLOT_BYTES;
            assert!(bytes <= PREFIX_CACHE_GENERATION_BYTES, "width {width}");
            // not needlessly small: one more entry would overflow
            let more = (cache.capacity + 1) * width * 4
                + (2 * cache.capacity + 2).next_power_of_two() * SLOT_BYTES;
            assert!(more > PREFIX_CACHE_GENERATION_BYTES, "width {width}");
        }
        // the ModelConfig::fast state (2 layers, hidden 64) is 1 KiB
        assert_eq!(PrefixStateCache::new(256).capacity, 7872);
    }
}
