//! The CTX table: a small slot table for live execution paths.

use std::fmt;

/// Identifier of a live execution path (an index into the [`PathTable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathId(u32);

impl PathId {
    /// Raw slot index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The id for slot `index` — the inverse of [`PathId::index`]. Used to
    /// decode slot bitmasks produced by [`crate::TagIndex`] back into ids.
    pub fn from_index(index: usize) -> Self {
        PathId(u32::try_from(index).expect("slot index fits in u32"))
    }
}

impl fmt::Display for PathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "path#{}", self.0)
    }
}

/// The CTX table of paper Fig. 7: one entry per possible concurrent path.
///
/// Each entry stores a caller-defined payload `T` (the micro-architecture
/// keeps fetch PC, path status, speculative GHR, RAS, and RegMap there).
/// The number of possible contexts is limited by the table capacity,
/// mirroring the bit-width limit of CTX tag fields in a real implementation.
///
/// ```
/// use pp_ctx::PathTable;
///
/// let mut paths: PathTable<&str> = PathTable::new(2);
/// let root = paths.allocate("root path").unwrap();
/// let taken = paths.allocate("taken successor").unwrap();
/// assert!(paths.is_full());
/// assert_eq!(paths.free(taken), "taken successor"); // wrong path killed
/// assert_eq!(paths.get(root), Some(&"root path"));
/// ```
#[derive(Debug, Clone)]
pub struct PathTable<T> {
    slots: Vec<Option<T>>,
    /// Live ids, oldest allocation first. Kept incrementally so the fetch
    /// arbiter can walk paths in age order without a per-cycle sort: slot
    /// indices are reused, but a reused slot re-enters at the back, so list
    /// order is allocation order.
    order: Vec<PathId>,
    live: usize,
}

impl<T> PathTable<T> {
    /// Table with room for `capacity` concurrent paths.
    ///
    /// # Panics
    /// Panics if `capacity` is 0.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "path table capacity must be nonzero");
        PathTable {
            slots: (0..capacity).map(|_| None).collect(),
            order: Vec::with_capacity(capacity),
            live: 0,
        }
    }

    /// Maximum number of concurrent paths.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of live paths.
    pub fn live(&self) -> usize {
        self.live
    }

    /// `true` when every slot is occupied.
    pub fn is_full(&self) -> bool {
        self.live == self.slots.len()
    }

    /// Allocate a slot for a new path, or `None` when the table is full.
    pub fn allocate(&mut self, payload: T) -> Option<PathId> {
        let idx = self.slots.iter().position(std::option::Option::is_none)?;
        self.slots[idx] = Some(payload);
        self.live += 1;
        let id = PathId(idx as u32);
        self.order.push(id);
        Some(id)
    }

    /// Free a path slot, returning its payload.
    ///
    /// # Panics
    /// Panics if the slot is already free (a path killed twice indicates a
    /// control-flow bookkeeping bug).
    pub fn free(&mut self, id: PathId) -> T {
        let payload = self.slots[id.index()]
            .take()
            .expect("freeing a dead path slot");
        self.live -= 1;
        let at = self
            .order
            .iter()
            .position(|&o| o == id)
            .expect("live path present in order list");
        self.order.remove(at);
        payload
    }

    /// Shared access to a live path's payload.
    pub fn get(&self, id: PathId) -> Option<&T> {
        self.slots.get(id.index()).and_then(|s| s.as_ref())
    }

    /// Exclusive access to a live path's payload.
    pub fn get_mut(&mut self, id: PathId) -> Option<&mut T> {
        self.slots.get_mut(id.index()).and_then(|s| s.as_mut())
    }

    /// Iterate over live paths in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (PathId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|t| (PathId(i as u32), t)))
    }

    /// Iterate mutably over live paths in slot order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (PathId, &mut T)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| s.as_mut().map(|t| (PathId(i as u32), t)))
    }

    /// Ids of live paths, oldest allocation first.
    pub fn ids_by_age(&self) -> &[PathId] {
        &self.order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_free_roundtrip() {
        let mut t: PathTable<u32> = PathTable::new(3);
        let a = t.allocate(10).unwrap();
        let b = t.allocate(20).unwrap();
        assert_eq!(t.live(), 2);
        assert_eq!(t.get(a), Some(&10));
        assert_eq!(t.free(a), 10);
        assert_eq!(t.live(), 1);
        assert_eq!(t.get(a), None);
        assert_eq!(t.get(b), Some(&20));
    }

    #[test]
    fn capacity_limit() {
        let mut t: PathTable<()> = PathTable::new(2);
        t.allocate(()).unwrap();
        t.allocate(()).unwrap();
        assert!(t.is_full());
        assert_eq!(t.allocate(()), None);
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut t: PathTable<u8> = PathTable::new(2);
        let a = t.allocate(1).unwrap();
        t.allocate(2).unwrap();
        t.free(a);
        let c = t.allocate(3).unwrap();
        assert_eq!(c, a, "lowest free slot is reused");
    }

    #[test]
    #[should_panic(expected = "dead path")]
    fn double_free_panics() {
        let mut t: PathTable<u8> = PathTable::new(1);
        let a = t.allocate(1).unwrap();
        t.free(a);
        t.free(a);
    }

    #[test]
    fn iteration_in_slot_order() {
        let mut t: PathTable<&str> = PathTable::new(4);
        let a = t.allocate("a").unwrap();
        let b = t.allocate("b").unwrap();
        t.free(a);
        t.allocate("c").unwrap(); // reuses slot 0
        let names: Vec<&str> = t.iter().map(|(_, s)| *s).collect();
        assert_eq!(names, vec!["c", "b"]);
        let _ = b;
    }

    #[test]
    fn get_mut_mutates() {
        let mut t: PathTable<u32> = PathTable::new(1);
        let a = t.allocate(5).unwrap();
        *t.get_mut(a).unwrap() += 1;
        assert_eq!(t.get(a), Some(&6));
    }

    #[test]
    fn age_order_survives_slot_reuse() {
        let mut t: PathTable<&str> = PathTable::new(4);
        let a = t.allocate("a").unwrap();
        let b = t.allocate("b").unwrap();
        t.free(a);
        let c = t.allocate("c").unwrap(); // reuses slot 0, but is youngest
        assert_eq!(c.index(), 0);
        assert_eq!(t.ids_by_age(), &[b, c]);
        let names: Vec<&str> = t
            .ids_by_age()
            .iter()
            .map(|&id| *t.get(id).unwrap())
            .collect();
        assert_eq!(names, vec!["b", "c"]);
    }

    #[test]
    fn from_index_roundtrips() {
        let mut t: PathTable<u8> = PathTable::new(3);
        t.allocate(0).unwrap();
        let b = t.allocate(1).unwrap();
        assert_eq!(PathId::from_index(b.index()), b);
    }

    #[test]
    fn display_of_path_id() {
        let mut t: PathTable<()> = PathTable::new(1);
        let a = t.allocate(()).unwrap();
        assert_eq!(a.to_string(), "path#0");
        assert_eq!(a.index(), 0);
    }
}
