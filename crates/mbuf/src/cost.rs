//! Effort receipts for buffer operations.
//!
//! The simulator charges virtual time for memory traffic and allocator
//! work. Rather than having the buffer layer know about time, every
//! mutating operation returns an [`OpCost`] describing the physical
//! work it performed; the protocol layers convert receipts to time
//! through the calibrated cost model.

use core::ops::{Add, AddAssign};

/// The physical work performed by a buffer operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCost {
    /// Bytes physically copied (memory-to-memory traffic).
    pub bytes_copied: usize,
    /// Ordinary mbufs allocated.
    pub mbufs_allocated: usize,
    /// Ordinary mbufs freed.
    pub mbufs_freed: usize,
    /// Cluster pages allocated.
    pub clusters_allocated: usize,
    /// Cluster pages whose reference count was bumped instead of
    /// copying (the cluster `m_copy` fast case).
    pub clusters_shared: usize,
}

impl OpCost {
    /// The zero receipt.
    pub const ZERO: OpCost = OpCost {
        bytes_copied: 0,
        mbufs_allocated: 0,
        mbufs_freed: 0,
        clusters_allocated: 0,
        clusters_shared: 0,
    };

    /// Receipt for a pure copy of `n` bytes.
    #[must_use]
    pub const fn copy(n: usize) -> OpCost {
        OpCost {
            bytes_copied: n,
            mbufs_allocated: 0,
            mbufs_freed: 0,
            clusters_allocated: 0,
            clusters_shared: 0,
        }
    }
}

impl Add for OpCost {
    type Output = OpCost;

    fn add(self, rhs: OpCost) -> OpCost {
        OpCost {
            bytes_copied: self.bytes_copied + rhs.bytes_copied,
            mbufs_allocated: self.mbufs_allocated + rhs.mbufs_allocated,
            mbufs_freed: self.mbufs_freed + rhs.mbufs_freed,
            clusters_allocated: self.clusters_allocated + rhs.clusters_allocated,
            clusters_shared: self.clusters_shared + rhs.clusters_shared,
        }
    }
}

impl AddAssign for OpCost {
    fn add_assign(&mut self, rhs: OpCost) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn receipts_add_componentwise() {
        let a = OpCost {
            bytes_copied: 10,
            mbufs_allocated: 1,
            mbufs_freed: 2,
            clusters_allocated: 3,
            clusters_shared: 4,
        };
        let mut b = OpCost::copy(5);
        b += a;
        assert_eq!(b.bytes_copied, 15);
        assert_eq!(b.mbufs_allocated, 1);
        assert_eq!(b.mbufs_freed, 2);
        assert_eq!(b.clusters_allocated, 3);
        assert_eq!(b.clusters_shared, 4);
    }

    #[test]
    fn zero_is_identity() {
        let a = OpCost::copy(7);
        assert_eq!(a + OpCost::ZERO, a);
    }
}
