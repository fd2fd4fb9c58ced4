//! Maglev consistent hashing (Eisenbud et al., NSDI '16, §3.4).
//!
//! Each backend gets a pseudo-random *permutation* of the `M` table
//! positions, derived from two independent hashes of its name:
//!
//! ```text
//! offset = h1(name) mod M
//! skip   = h2(name) mod (M - 1) + 1
//! permutation[j] = (offset + j * skip) mod M      (M prime ⇒ full cycle)
//! ```
//!
//! The table is populated by giving backends turns in round-robin order;
//! on its turn a backend claims the next unclaimed position in its
//! permutation. Two properties follow, both verified by tests here and
//! measured by experiment E8:
//!
//! - **balance**: entry counts differ by at most a small factor, because
//!   turn order interleaves backends evenly;
//! - **minimal disruption**: removing one backend leaves most other
//!   entries where they were, because each backend's preference list is
//!   independent of the others.

use rbs_netfx::flow::stable_hash_bytes;

/// A load-balancing backend: a name (hash identity) plus a weight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Backend {
    /// Stable identity; hashing the name decides table positions.
    pub name: String,
    /// Relative weight; a weight-2 backend takes twice the turns of a
    /// weight-1 backend and therefore ~2x the table share.
    pub weight: u32,
}

impl Backend {
    /// A backend with weight 1.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            weight: 1,
        }
    }

    /// A backend with an explicit weight.
    pub fn weighted(name: impl Into<String>, weight: u32) -> Self {
        Self {
            name: name.into(),
            weight,
        }
    }
}

/// Errors from table construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// No backends were supplied.
    NoBackends,
    /// The requested table size is not a prime ≥ 2.
    SizeNotPrime(usize),
    /// A backend has weight 0 (it could never claim an entry).
    ZeroWeight(String),
    /// Two backends share a name (their permutations would collide).
    DuplicateName(String),
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::NoBackends => write!(f, "cannot build a Maglev table with no backends"),
            TableError::SizeNotPrime(m) => write!(f, "table size {m} is not prime"),
            TableError::ZeroWeight(n) => write!(f, "backend {n} has zero weight"),
            TableError::DuplicateName(n) => write!(f, "duplicate backend name {n}"),
        }
    }
}

impl std::error::Error for TableError {}

/// The populated lookup table.
#[derive(Debug, Clone)]
pub struct MaglevTable {
    backends: Vec<Backend>,
    /// entry[i] = index into `backends`.
    entries: Vec<u32>,
    /// [`rem_magic`] of `entries.len()`: `lookup` takes its remainder by
    /// multiplication.
    magic: u128,
}

impl MaglevTable {
    /// The Maglev paper's small table size (65537 is used in production;
    /// tests and benches use this default for speed).
    pub const DEFAULT_SIZE: usize = 65537;

    /// Builds a table of `size` entries over `backends`.
    ///
    /// `size` must be prime so `skip` generates the full position cycle;
    /// the Maglev paper picks primes near the desired size.
    pub fn new(backends: Vec<Backend>, size: usize) -> Result<Self, TableError> {
        if backends.is_empty() {
            return Err(TableError::NoBackends);
        }
        if !is_prime(size) {
            return Err(TableError::SizeNotPrime(size));
        }
        let mut seen = std::collections::HashSet::new();
        for b in &backends {
            if b.weight == 0 {
                return Err(TableError::ZeroWeight(b.name.clone()));
            }
            if !seen.insert(b.name.as_str()) {
                return Err(TableError::DuplicateName(b.name.clone()));
            }
        }
        let entries = populate(&backends, size);
        Ok(Self {
            backends,
            entries,
            magic: rem_magic(size as u64),
        })
    }

    /// Number of table entries.
    pub fn size(&self) -> usize {
        self.entries.len()
    }

    /// The backends, in construction order.
    pub fn backends(&self) -> &[Backend] {
        &self.backends
    }

    /// Looks up the backend index for a flow hash.
    #[inline]
    pub fn lookup(&self, flow_hash: u64) -> usize {
        self.entries[fast_rem(flow_hash, self.magic, self.entries.len() as u64)] as usize
    }

    /// Entry counts per backend, parallel to [`MaglevTable::backends`].
    pub fn entry_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.backends.len()];
        for &e in &self.entries {
            counts[e as usize] += 1;
        }
        counts
    }

    /// Ratio of the largest to the smallest per-backend entry count —
    /// the load-imbalance metric of the Maglev paper's Figure 9 family.
    ///
    /// For weighted tables the counts are first normalized by weight.
    pub fn imbalance(&self) -> f64 {
        let counts = self.entry_counts();
        let normalized: Vec<f64> = counts
            .iter()
            .zip(&self.backends)
            .map(|(&c, b)| c as f64 / f64::from(b.weight))
            .collect();
        let max = normalized.iter().cloned().fold(f64::MIN, f64::max);
        let min = normalized.iter().cloned().fold(f64::MAX, f64::min);
        if min == 0.0 {
            f64::INFINITY
        } else {
            max / min
        }
    }

    /// Fraction of entries that map to different backends in `other`
    /// (same size required) — the disruption metric for backend changes.
    ///
    /// Entries are compared by backend *name* so the two tables may order
    /// or subset their backend lists differently.
    ///
    /// # Panics
    ///
    /// Panics if the two tables have different sizes.
    pub fn disruption(&self, other: &MaglevTable) -> f64 {
        self.disrupted_entries(other) as f64 / self.size() as f64
    }

    /// Number of entries that map to a different backend in `other` —
    /// the integer core of [`disruption`](Self::disruption), exact for
    /// byte-stable reports and bound assertions.
    ///
    /// # Panics
    ///
    /// Panics if the two tables have different sizes.
    pub fn disrupted_entries(&self, other: &MaglevTable) -> usize {
        assert_eq!(
            self.size(),
            other.size(),
            "disruption requires equal table sizes"
        );
        self.entries
            .iter()
            .zip(&other.entries)
            .filter(|&(&a, &b)| self.backends[a as usize].name != other.backends[b as usize].name)
            .count()
    }

    /// Of the entries that changed hands between `self` and `other`,
    /// the number whose backend exists in **both** tables — collateral
    /// movement, beyond what the add/remove itself forced. Consistent
    /// hashing promises this stays a small fraction of the necessary
    /// movement; the disruption-bound tests pin it.
    ///
    /// # Panics
    ///
    /// Panics if the two tables have different sizes.
    pub fn collateral_moves(&self, other: &MaglevTable) -> usize {
        assert_eq!(
            self.size(),
            other.size(),
            "disruption requires equal table sizes"
        );
        let self_names: std::collections::HashSet<&str> =
            self.backends.iter().map(|b| b.name.as_str()).collect();
        let other_names: std::collections::HashSet<&str> =
            other.backends.iter().map(|b| b.name.as_str()).collect();
        self.entries
            .iter()
            .zip(&other.entries)
            .filter(|&(&a, &b)| {
                let from = self.backends[a as usize].name.as_str();
                let to = other.backends[b as usize].name.as_str();
                // Forced moves have an endpoint that only one table
                // knows: off a removed backend, onto an added one.
                from != to && other_names.contains(from) && self_names.contains(to)
            })
            .count()
    }
}

/// `ceil(2^128 / size)` for `size >= 2` (a prime is), the constant
/// [`fast_rem`] multiplies by.
fn rem_magic(size: u64) -> u128 {
    u128::MAX / u128::from(size) + 1
}

/// `hash % size`, exactly, without a divide (Lemire, Kaser & Kurz,
/// "Faster remainder by direct computation", 2019). The low 128 bits of
/// `magic × hash` are the fraction `hash / size` leaves, scaled by 2^128;
/// that fraction times `size` — the high 64 bits of a 128 × 64-bit
/// product — is the remainder. 128 fraction bits make it exact for every
/// 64-bit hash and size.
#[inline]
fn fast_rem(hash: u64, magic: u128, size: u64) -> usize {
    let fraction = magic.wrapping_mul(u128::from(hash));
    let (hi, lo) = (fraction >> 64, fraction & u128::from(u64::MAX));
    let size = u128::from(size);
    ((hi * size + ((lo * size) >> 64)) >> 64) as usize
}

/// Primality by trial division — table construction is a control-plane
/// operation, so simplicity beats speed here.
pub fn is_prime(n: usize) -> bool {
    if n < 2 {
        return false;
    }
    if n.is_multiple_of(2) {
        return n == 2;
    }
    let mut d = 3usize;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 2;
    }
    true
}

/// Returns the smallest prime ≥ `n` (for picking table sizes).
pub fn next_prime(mut n: usize) -> usize {
    loop {
        if is_prime(n) {
            return n;
        }
        n += 1;
    }
}

/// The population loop of the Maglev paper (Pseudocode 1), extended with
/// weights: a backend with weight `w` takes `w` consecutive turns per
/// round.
fn populate(backends: &[Backend], m: usize) -> Vec<u32> {
    struct Perm {
        offset: u64,
        skip: u64,
        next_j: u64,
    }
    let mut perms: Vec<Perm> = backends
        .iter()
        .map(|b| {
            let h1 = stable_hash_bytes(b.name.as_bytes());
            // Independent second hash: re-hash with a salt suffix.
            let salted: Vec<u8> = b.name.bytes().chain(*b"#skip").collect();
            let h2 = stable_hash_bytes(&salted);
            Perm {
                offset: h1 % m as u64,
                skip: h2 % (m as u64 - 1) + 1,
                next_j: 0,
            }
        })
        .collect();

    let mut entries = vec![u32::MAX; m];
    let mut filled = 0usize;
    'rounds: loop {
        for (i, perm) in perms.iter_mut().enumerate() {
            for _ in 0..backends[i].weight {
                // Claim the next unclaimed preferred position.
                loop {
                    let pos = ((perm.offset + perm.next_j * perm.skip) % m as u64) as usize;
                    perm.next_j += 1;
                    if entries[pos] == u32::MAX {
                        entries[pos] = i as u32;
                        filled += 1;
                        break;
                    }
                }
                if filled == m {
                    break 'rounds;
                }
            }
        }
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<Backend> {
        (0..n)
            .map(|i| Backend::new(format!("backend-{i}")))
            .collect()
    }

    #[test]
    fn primality() {
        assert!(is_prime(2));
        assert!(is_prime(3));
        assert!(is_prime(65537));
        assert!(!is_prime(0));
        assert!(!is_prime(1));
        assert!(!is_prime(4));
        assert!(!is_prime(65536));
        assert_eq!(next_prime(100), 101);
        assert_eq!(next_prime(101), 101);
    }

    #[test]
    fn construction_errors() {
        assert_eq!(
            MaglevTable::new(vec![], 7).unwrap_err(),
            TableError::NoBackends
        );
        assert_eq!(
            MaglevTable::new(names(2), 8).unwrap_err(),
            TableError::SizeNotPrime(8)
        );
        assert_eq!(
            MaglevTable::new(vec![Backend::weighted("x", 0)], 7).unwrap_err(),
            TableError::ZeroWeight("x".into())
        );
        assert_eq!(
            MaglevTable::new(vec![Backend::new("x"), Backend::new("x")], 7).unwrap_err(),
            TableError::DuplicateName("x".into())
        );
    }

    #[test]
    fn every_entry_is_assigned() {
        let t = MaglevTable::new(names(5), 503).unwrap();
        assert_eq!(t.size(), 503);
        assert_eq!(t.entry_counts().iter().sum::<usize>(), 503);
        // No entry left at the sentinel.
        for h in 0..503u64 {
            assert!(t.lookup(h) < 5);
        }
    }

    #[test]
    fn single_backend_owns_table() {
        let t = MaglevTable::new(names(1), 101).unwrap();
        assert_eq!(t.entry_counts(), vec![101]);
        assert_eq!(t.imbalance(), 1.0);
    }

    #[test]
    fn balance_is_tight() {
        // The Maglev paper's headline property: with M >> N the per-backend
        // share is near-uniform. Round-robin turns bound the gap at 1 per
        // round, so max/min stays very close to 1.
        let t = MaglevTable::new(names(10), 10007).unwrap();
        let imb = t.imbalance();
        assert!(imb < 1.02, "imbalance {imb} too high");
    }

    #[test]
    fn weights_scale_share() {
        let backends = vec![Backend::weighted("heavy", 3), Backend::weighted("light", 1)];
        let t = MaglevTable::new(backends, 10007).unwrap();
        let counts = t.entry_counts();
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((2.8..3.2).contains(&ratio), "weight ratio {ratio} not ~3");
        // Normalized imbalance accounts for weights.
        assert!(t.imbalance() < 1.1);
    }

    #[test]
    fn lookup_is_deterministic() {
        let a = MaglevTable::new(names(4), 1009).unwrap();
        let b = MaglevTable::new(names(4), 1009).unwrap();
        for h in (0..10_000u64).step_by(7) {
            assert_eq!(a.lookup(h), b.lookup(h));
        }
    }

    #[test]
    fn removal_disrupts_minimally() {
        let full = MaglevTable::new(names(10), 10007).unwrap();
        let mut nine = names(10);
        nine.remove(3);
        let reduced = MaglevTable::new(nine, 10007).unwrap();
        let d = full.disruption(&reduced);
        // backend-3 owned ~1/10 of entries; those must move. Consistent
        // hashing keeps collateral movement small: well under double the
        // necessary share.
        assert!(d >= 0.09, "at least backend-3's share must move, got {d}");
        assert!(d < 0.20, "collateral disruption too high: {d}");
    }

    #[test]
    fn addition_disrupts_about_one_share() {
        let ten = MaglevTable::new(names(10), 10007).unwrap();
        let eleven = MaglevTable::new(names(11), 10007).unwrap();
        let d = ten.disruption(&eleven);
        assert!(d >= 0.08, "new backend must take ~1/11, got {d}");
        assert!(d < 0.20, "collateral disruption too high: {d}");
    }

    #[test]
    fn disruption_of_identical_tables_is_zero() {
        let a = MaglevTable::new(names(3), 503).unwrap();
        let b = a.clone();
        assert_eq!(a.disruption(&b), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal table sizes")]
    fn disruption_size_mismatch_panics() {
        let a = MaglevTable::new(names(2), 101).unwrap();
        let b = MaglevTable::new(names(2), 103).unwrap();
        a.disruption(&b);
    }

    /// Hashes around every place the remainder could slip for `size`:
    /// the ends of the range and both neighbours of small, middling and
    /// the largest multiples.
    fn edge_hashes(size: u64) -> Vec<u64> {
        let mut hashes = vec![0, 1, size - 1, 1 << 32, 1 << 63, u64::MAX - 1, u64::MAX];
        let largest = u64::MAX / size;
        for k in [1, 2, 1 << 20, largest] {
            let multiple = k.min(largest) * size;
            hashes.extend([multiple - 1, multiple, multiple.saturating_add(1)]);
        }
        hashes
    }

    #[test]
    fn fast_rem_is_the_remainder_for_every_table_size_in_use() {
        // 251: the tenant engines' steering tables; `DEFAULT_SIZE`
        // (65 537): the load balancer's; the rest bracket them.
        let in_use = [251, MaglevTable::DEFAULT_SIZE as u64];
        for size in in_use.into_iter().chain([2, 3, 1_000_003, u64::MAX]) {
            let magic = rem_magic(size);
            for h in edge_hashes(size) {
                assert_eq!(fast_rem(h, magic, size) as u64, h % size, "{h} mod {size}");
            }
        }
        // And through the table: a lookup reads the slot `%` names.
        let t = MaglevTable::new(names(7), 251).unwrap();
        for h in edge_hashes(251) {
            assert_eq!(t.lookup(h), t.entries[(h % 251) as usize] as usize);
        }
    }

    proptest::proptest! {
        #[test]
        fn fast_rem_matches_the_divide(
            size in 2u64..=u64::MAX,
            small in 2u64..70_000,
            hashes in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..64),
        ) {
            for size in [size, small] {
                let magic = rem_magic(size);
                let multiples = hashes.iter().map(|h| h / size * size);
                for h in hashes.iter().copied().chain(multiples).chain(edge_hashes(size)) {
                    proptest::prop_assert_eq!(fast_rem(h, magic, size) as u64, h % size);
                }
            }
        }
    }
}
