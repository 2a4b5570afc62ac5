//! Sparse paged byte-addressable memory.
//!
//! The paper's machine model assumes all cache accesses hit, so the memory
//! model only has to provide values, not timing. Pages are allocated lazily
//! and read as zero before first write — wrong-path loads from wild
//! addresses are therefore always defined.
//!
//! The page map stays sparse (a hash map keyed by page number, not a flat
//! array) because wrong-path loads and stores under SEE and dual-path hit
//! arbitrary 64-bit addresses; only the pages actually touched exist.
//! Every operation touches that map as rarely as it can: loading a data
//! segment costs one lookup per page it covers, and a word access costs
//! one lookup when its 8 bytes lie in one page. Only a word that
//! straddles two pages (or wraps past `u64::MAX`) goes byte by byte.

use std::collections::HashMap;

use pp_isa::{DataSegment, Width};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = PAGE_SIZE as u64 - 1;
/// Largest in-page offset at which a whole 8-byte word fits in the page.
const LAST_WORD_OFFSET: usize = PAGE_SIZE - 8;

/// Sparse 64-bit byte-addressable memory with lazily allocated 4 KiB pages.
///
/// ```
/// use pp_func::Memory;
///
/// let mut mem = Memory::new();
/// assert_eq!(mem.read_u64(0x1000), 0, "unwritten memory reads zero");
/// mem.write_u64(0x1000, 42);
/// assert_eq!(mem.read_u64(0x1000), 42);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>>,
}

impl Memory {
    /// Empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Memory pre-loaded with a program's data segments, applied in
    /// order (where two overlap, the later one wins). Addresses wrap
    /// past `u64::MAX` like [`write_u8`](Self::write_u8).
    pub fn with_segments(segments: &[DataSegment]) -> Self {
        let mut m = Self::new();
        for seg in segments {
            let mut addr = seg.base;
            let mut rest = &seg.bytes[..];
            while !rest.is_empty() {
                let off = (addr & PAGE_MASK) as usize;
                let (chunk, tail) = rest.split_at(rest.len().min(PAGE_SIZE - off));
                m.page_mut(addr)[off..off + chunk.len()].copy_from_slice(chunk);
                addr = addr.wrapping_add(chunk.len() as u64);
                rest = tail;
            }
        }
        m
    }

    /// The page holding `addr`, allocated (zeroed) on first touch.
    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Read one byte (zero if never written).
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(page) => page[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Write one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = value;
    }

    /// Read a 64-bit little-endian word (no alignment requirement).
    pub fn read_u64(&self, addr: u64) -> u64 {
        let mut bytes = [0u8; 8];
        let off = (addr & PAGE_MASK) as usize;
        if off <= LAST_WORD_OFFSET {
            if let Some(page) = self.pages.get(&(addr >> PAGE_SHIFT)) {
                bytes.copy_from_slice(&page[off..off + 8]);
            }
        } else {
            for (i, b) in bytes.iter_mut().enumerate() {
                *b = self.read_u8(addr.wrapping_add(i as u64));
            }
        }
        u64::from_le_bytes(bytes)
    }

    /// Write a 64-bit little-endian word.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        let off = (addr & PAGE_MASK) as usize;
        if off <= LAST_WORD_OFFSET {
            self.page_mut(addr)[off..off + 8].copy_from_slice(&value.to_le_bytes());
        } else {
            for (i, b) in value.to_le_bytes().iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u64), *b);
            }
        }
    }

    /// Read with an ISA access width, zero-extending bytes.
    pub fn read(&self, addr: u64, width: Width) -> i64 {
        match width {
            Width::Byte => self.read_u8(addr) as i64,
            Width::Word => self.read_u64(addr) as i64,
        }
    }

    /// Write with an ISA access width (byte writes truncate).
    pub fn write(&mut self, addr: u64, value: i64, width: Width) {
        match width {
            Width::Byte => self.write_u8(addr, value as u8),
            Width::Word => self.write_u64(addr, value as u64),
        }
    }

    /// Number of populated pages (for tests and capacity diagnostics).
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Iterate over all populated (address, byte) pairs in arbitrary order
    /// where the byte is nonzero. Used by co-simulation equality checks.
    pub fn nonzero_bytes(&self) -> impl Iterator<Item = (u64, u8)> + '_ {
        self.pages.iter().flat_map(|(page_no, page)| {
            let base = page_no << PAGE_SHIFT;
            page.iter()
                .enumerate()
                .filter(|(_, b)| **b != 0)
                .map(move |(i, b)| (base + i as u64, *b))
        })
    }

    /// `true` when every populated byte equals the corresponding byte in
    /// `other` and vice versa (i.e. the memories are architecturally equal).
    /// Compared page by page; a present all-zero page equals an absent one.
    pub fn same_contents(&self, other: &Memory) -> bool {
        let zero = |page: &[u8; PAGE_SIZE]| page.iter().all(|&b| b == 0);
        self.pages
            .iter()
            .all(|(no, page)| match other.pages.get(no) {
                Some(theirs) => page == theirs,
                None => zero(page),
            })
            && other
                .pages
                .iter()
                .all(|(no, page)| self.pages.contains_key(no) || zero(page))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u64(0xdead_beef), 0);
        assert_eq!(m.page_count(), 0);
    }

    #[test]
    fn word_roundtrip_across_page_boundary() {
        let mut m = Memory::new();
        let addr = (1 << PAGE_SHIFT) - 3; // straddles page 0 and page 1
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn byte_writes_truncate() {
        let mut m = Memory::new();
        m.write(0x100, 0x1ff, Width::Byte);
        assert_eq!(m.read(0x100, Width::Byte), 0xff);
        assert_eq!(m.read_u8(0x101), 0);
    }

    #[test]
    fn segments_are_loaded() {
        let seg = DataSegment::from_words(0x1000, &[7, -1]);
        let m = Memory::with_segments(&[seg]);
        assert_eq!(m.read(0x1000, Width::Word), 7);
        assert_eq!(m.read(0x1008, Width::Word), -1);
    }

    #[test]
    fn same_contents_ignores_zero_writes() {
        let mut a = Memory::new();
        let b = Memory::new();
        a.write_u8(5, 0); // allocates a page but stays architecturally zero
        assert!(a.same_contents(&b));
        assert!(b.same_contents(&a));
        a.write_u8(5, 9);
        assert!(!a.same_contents(&b));
        assert!(!b.same_contents(&a));
    }

    #[test]
    fn same_contents_compares_present_pages_both_ways() {
        // `a` holds two all-zero pages that `b` lacks; both hold page 5.
        let mut a = Memory::new();
        let mut b = Memory::new();
        a.write_u64(0x1ffc, 0); // zero-filled pages 1 and 2 in `a` only
        b.write_u64(0x5000, 7);
        a.write_u64(0x5000, 7);
        assert_eq!((a.page_count(), b.page_count()), (3, 1));
        assert!(a.same_contents(&b) && b.same_contents(&a));
        b.write_u8(0x2003, 1); // lands in a page `a` holds as all-zero
        assert!(!a.same_contents(&b) && !b.same_contents(&a));
        a.write_u8(0x2003, 1);
        assert!(a.same_contents(&b) && b.same_contents(&a));
        a.write_u8(0x5fff, 1); // last byte of a page both hold
        assert!(!a.same_contents(&b) && !b.same_contents(&a));
    }

    /// Byte-wise reference model: a map from address to byte, absent = 0.
    #[derive(Default)]
    struct Model(std::collections::BTreeMap<u64, u8>);

    impl Model {
        fn write(&mut self, addr: u64, bytes: &[u8]) {
            for (i, b) in bytes.iter().enumerate() {
                self.0.insert(addr.wrapping_add(i as u64), *b);
            }
        }

        fn read<const N: usize>(&self, addr: u64) -> [u8; N] {
            std::array::from_fn(|i| {
                let a = addr.wrapping_add(i as u64);
                self.0.get(&a).copied().unwrap_or(0)
            })
        }

        fn pages(&self) -> usize {
            let pages: std::collections::BTreeSet<u64> =
                self.0.keys().map(|a| a >> PAGE_SHIFT).collect();
            pages.len()
        }

        /// `m` holds exactly the model's bytes (and every other byte reads 0).
        fn check(&self, m: &Memory, what: &str) {
            for (&a, &b) in &self.0 {
                assert_eq!(m.read_u8(a), b, "{what}: byte at {a:#x}");
            }
            assert_eq!(m.page_count(), self.pages(), "{what}: page count");
            for (a, b) in m.nonzero_bytes() {
                assert_eq!(self.0.get(&a), Some(&b), "{what}: stray byte at {a:#x}");
            }
        }
    }

    /// Fixed-seed 64-bit LCG (Knuth's MMIX constants), rotated so that `%`
    /// reads its strong high bits.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            self.0.rotate_right(16)
        }

        /// An address clustered where word accesses change path: page
        /// offsets 4088..=4095, the top 8 bytes of the address space,
        /// and anywhere in a few pages.
        fn target(&mut self) -> u64 {
            const PAGES: [u64; 4] = [0, 0x1000, 0x7fff_e000, !PAGE_MASK];
            let page = PAGES[(self.next() % 4) as usize];
            match self.next() % 4 {
                0 | 1 => page + 4088 + self.next() % 8,
                2 => u64::MAX - self.next() % 8,
                _ => page + self.next() % PAGE_SIZE as u64,
            }
        }
    }

    #[test]
    fn word_and_byte_accesses_match_a_byte_model() {
        let mut rng = Lcg(0x5eed);
        let mut m = Memory::new();
        let mut model = Model::default();
        for step in 0..20_000 {
            let addr = rng.target();
            let value = rng.next();
            match rng.next() % 8 {
                0 => {
                    m.write_u8(addr, value as u8);
                    model.write(addr, &[value as u8]);
                }
                1 => {
                    m.write_u64(addr, value);
                    model.write(addr, &value.to_le_bytes());
                }
                2 => {
                    m.write(addr, value as i64, Width::Byte);
                    model.write(addr, &[value as u8]);
                }
                3 => {
                    m.write(addr, value as i64, Width::Word);
                    model.write(addr, &value.to_le_bytes());
                }
                4 => assert_eq!(m.read_u8(addr), model.read::<1>(addr)[0], "step {step}"),
                5 => assert_eq!(
                    m.read_u64(addr),
                    u64::from_le_bytes(model.read(addr)),
                    "step {step} at {addr:#x}"
                ),
                6 => assert_eq!(
                    m.read(addr, Width::Byte),
                    i64::from(model.read::<1>(addr)[0]),
                    "step {step}"
                ),
                _ => assert_eq!(
                    m.read(addr, Width::Word),
                    i64::from_le_bytes(model.read(addr)),
                    "step {step} at {addr:#x}"
                ),
            }
        }
        model.check(&m, "after the random walk");
    }

    /// Loads `segments` the way the byte-at-a-time loader did.
    fn load_bytewise(segments: &[DataSegment]) -> (Memory, Model) {
        let mut m = Memory::new();
        let mut model = Model::default();
        for seg in segments {
            for (i, b) in seg.bytes.iter().enumerate() {
                m.write_u8(seg.base.wrapping_add(i as u64), *b);
            }
            model.write(seg.base, &seg.bytes);
        }
        (m, model)
    }

    fn seg(base: u64, len: usize, salt: u8) -> DataSegment {
        let bytes = (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt) | 1)
            .collect();
        DataSegment { base, bytes }
    }

    #[test]
    fn segment_loading_matches_bytewise_loading() {
        let cases: [(&str, Vec<DataSegment>); 6] = [
            ("unaligned, one page", vec![seg(0x1003, 100, 1)]),
            ("unaligned, two pages", vec![seg(0x2ff0, 40, 2)]),
            (
                "unaligned, three pages",
                vec![seg(0x4ffd, PAGE_SIZE + 10, 3)],
            ),
            (
                "overlapping, later wins",
                vec![seg(0x8000, 5000, 4), seg(0x8ff0, 64, 5), seg(0x8004, 3, 6)],
            ),
            ("empty", vec![seg(0x9000, 0, 7)]),
            ("wrapping past u64::MAX", vec![seg(u64::MAX - 5, 20, 8)]),
        ];
        for (what, segments) in cases {
            let m = Memory::with_segments(&segments);
            let (bytewise, model) = load_bytewise(&segments);
            model.check(&m, what);
            assert!(m.same_contents(&bytewise), "{what}");
            assert_eq!(m.page_count(), bytewise.page_count(), "{what}");
        }
    }

    #[test]
    fn wrapping_addresses_do_not_panic() {
        let mut m = Memory::new();
        m.write_u64(u64::MAX - 2, 0x0102_0304_0506_0708);
        assert_eq!(m.read_u64(u64::MAX - 2), 0x0102_0304_0506_0708);
    }
}
