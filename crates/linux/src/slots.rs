//! An index-stable table for kernel objects addressed by handle.
//!
//! Namespaces and interfaces are named by their index ([`crate::NsId`],
//! [`crate::IfaceId`]) all over the stack — routes, bridge members,
//! driver instance records. Removing one must therefore never shift the
//! others: a removed entry leaves a free slot behind, and the next
//! insert fills the most recently freed slot, so a host that churns
//! namespaces stays as large as its busiest moment, not its history.

use std::ops::{Index, IndexMut};

#[derive(Debug)]
pub(crate) struct Slots<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Slots<T> {
    pub(crate) fn new() -> Self {
        Slots {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Store the value `build` makes for the slot it is given — the
    /// most recently freed one, else a new one — and return that index
    /// (objects carry their own handle, so they need it to be built).
    pub(crate) fn insert_with(&mut self, build: impl FnOnce(u32) -> T) -> u32 {
        match self.free.pop() {
            Some(index) => {
                self.slots[index as usize] = Some(build(index));
                index
            }
            None => {
                let index = self.slots.len() as u32;
                self.slots.push(Some(build(index)));
                index
            }
        }
    }

    /// Take the entry out, freeing its slot; `None` if already free.
    pub(crate) fn remove(&mut self, index: u32) -> Option<T> {
        let value = self.slots.get_mut(index as usize)?.take()?;
        self.free.push(index);
        Some(value)
    }

    pub(crate) fn get(&self, index: u32) -> Option<&T> {
        self.slots.get(index as usize)?.as_ref()
    }

    pub(crate) fn get_mut(&mut self, index: u32) -> Option<&mut T> {
        self.slots.get_mut(index as usize)?.as_mut()
    }

    /// Live entries in index order; free slots are skipped.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

impl<T> Index<usize> for Slots<T> {
    type Output = T;

    /// # Panics
    /// On a free slot: the handle outlived the object it named.
    fn index(&self, index: usize) -> &T {
        self.slots[index]
            .as_ref()
            .expect("handle names a removed object")
    }
}

impl<T> IndexMut<usize> for Slots<T> {
    fn index_mut(&mut self, index: usize) -> &mut T {
        self.slots[index]
            .as_mut()
            .expect("handle names a removed object")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freed_slots_are_reused_and_skipped() {
        let mut s = Slots::new();
        let (a, b, c) = (
            s.insert_with(|_| "a"),
            s.insert_with(|_| "b"),
            s.insert_with(|_| "c"),
        );
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(s.remove(b), Some("b"));
        assert_eq!(s.remove(b), None, "second removal finds nothing");
        assert_eq!(s.get(b), None);
        assert_eq!(s.iter().copied().collect::<Vec<_>>(), ["a", "c"]);
        assert_eq!(s.len(), 2);
        // The freed slot is the next one filled, and told so; its
        // neighbours keep theirs.
        assert_eq!(s.insert_with(|i| ["x", "d"][i as usize]), b);
        assert_eq!((s[0], s[1], s[2]), ("a", "d", "c"));
        assert_eq!(s.insert_with(|_| "e"), 3);
    }
}
