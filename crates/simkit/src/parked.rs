//! A slab for values that ride on events.

/// Values too big for an event's `u64` payload, such as a cell train
/// in flight, parked by slot: [`park`](Parked::park) returns the slot
/// to pass as the payload, and [`take`](Parked::take) hands the value
/// back when the event fires and frees the slot for reuse.
pub struct Parked<T> {
    slots: Vec<Option<T>>,
    free: Vec<u64>,
}

impl<T> Default for Parked<T> {
    fn default() -> Self {
        Parked {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Parked<T> {
    /// Parks `value` and returns its slot, the last one vacated if any.
    pub fn park(&mut self, value: T) -> u64 {
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = Some(value);
            return slot;
        }
        self.slots.push(Some(value));
        self.slots.len() as u64 - 1
    }

    /// Takes the value parked in `slot` and frees the slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot` holds nothing: each parked value is taken once.
    pub fn take(&mut self, slot: u64) -> T {
        let value = self.slots.get_mut(slot as usize).and_then(Option::take);
        let value = value.unwrap_or_else(|| panic!("parked slot {slot} is empty"));
        self.free.push(slot);
        value
    }

    /// Whether no value is parked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.len() == self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_freed_slot_is_reused() {
        let mut p = Parked::default();
        let slots: Vec<u64> = (0..4).map(|i| p.park(i)).collect();
        assert_eq!(slots, vec![0, 1, 2, 3]);
        assert_eq!(p.take(1), 1);
        assert_eq!(p.take(3), 3);
        // Last vacated, first reused; the slab grows only when full.
        assert_eq!(p.park(30), 3);
        assert_eq!(p.park(10), 1);
        assert_eq!(p.park(4), 4);
        assert!(!p.is_empty());
        assert_eq!([0, 1, 2, 3, 4].map(|s| p.take(s)), [0, 10, 2, 30, 4]);
        assert!(p.is_empty());
    }

    #[test]
    #[should_panic(expected = "parked slot 0 is empty")]
    fn taking_an_empty_slot_panics() {
        let mut p = Parked::default();
        let slot = p.park(());
        p.take(slot);
        p.take(slot);
    }

    #[test]
    #[should_panic(expected = "parked slot 7 is empty")]
    fn taking_a_never_parked_slot_panics() {
        Parked::<()>::default().take(7);
    }
}
