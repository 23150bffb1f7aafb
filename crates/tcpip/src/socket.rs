//! Socket buffers and socket state.
//!
//! The ULTRIX socket layer's behaviour that the paper measures — the
//! 1 KB mbuf/cluster switch on fill, the `sbdrop` on ACK, blocked
//! readers woken by `sorwakeup` — is implemented over the real
//! [`mbuf::Chain`]. The copy costs are charged by the kernel using
//! the receipts these operations return.

use mbuf::{Chain, MbufPool, OpCost};

/// One direction of socket buffering.
#[derive(Default)]
pub struct SockBuf {
    /// The buffered data.
    pub chain: Chain,
    /// High-water mark (`sb_hiwat`).
    pub hiwat: usize,
}

impl SockBuf {
    /// Creates an empty buffer with the given high-water mark.
    #[must_use]
    pub fn new(hiwat: usize) -> Self {
        SockBuf {
            chain: Chain::new(),
            hiwat,
        }
    }

    /// Bytes currently buffered (`sb_cc`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.chain.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chain.is_empty()
    }

    /// Remaining space (`sbspace`).
    #[must_use]
    pub fn space(&self) -> usize {
        self.hiwat.saturating_sub(self.len())
    }

    /// Appends a chain (no copy — mbufs move in).
    pub fn append(&mut self, chain: Chain) {
        self.chain.append(chain);
    }

    /// Drops `n` bytes from the front (`sbdrop`, on ACK or after a
    /// copy to the user).
    #[must_use]
    pub fn drop_front(&mut self, n: usize) -> OpCost {
        self.chain.trim_front(n)
    }

    /// Copies `len` bytes at offset `off` out of the buffer without
    /// consuming (TCP transmissions leave data for retransmit).
    #[must_use]
    pub fn peek_copy(&self, pool: &MbufPool, off: usize, len: usize) -> (Chain, OpCost) {
        self.chain.copy_range(pool, off, len)
    }
}

/// States of the benchmark process relative to this socket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcState {
    /// Not waiting on this socket.
    Running,
    /// Blocked in read() waiting for data.
    BlockedInRead,
    /// Blocked in write() waiting for send-buffer space.
    BlockedInWrite,
}

/// A connected stream socket.
pub struct Socket {
    /// Send buffer.
    pub snd: SockBuf,
    /// Receive buffer.
    pub rcv: SockBuf,
    /// The owning process's wait state.
    pub proc_state: ProcState,
}

impl Socket {
    /// Creates a socket with symmetric buffer sizes.
    #[must_use]
    pub fn new(sockbuf: usize) -> Self {
        Socket {
            snd: SockBuf::new(sockbuf),
            rcv: SockBuf::new(sockbuf),
            proc_state: ProcState::Running,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbuf::chain::ultrix_uses_clusters;

    #[test]
    fn space_accounting() {
        let pool = MbufPool::new();
        let mut sb = SockBuf::new(1000);
        assert_eq!(sb.space(), 1000);
        let (c, _) = Chain::from_user_data(&pool, &[1u8; 300], false);
        sb.append(c);
        assert_eq!(sb.len(), 300);
        assert_eq!(sb.space(), 700);
        let _ = sb.drop_front(100);
        assert_eq!(sb.len(), 200);
        assert_eq!(sb.space(), 800);
    }

    #[test]
    fn space_never_underflows() {
        let pool = MbufPool::new();
        let mut sb = SockBuf::new(100);
        let (c, _) = Chain::from_user_data(&pool, &[0u8; 300], false);
        sb.append(c);
        assert_eq!(sb.space(), 0);
    }

    #[test]
    fn peek_copy_leaves_data() {
        let pool = MbufPool::new();
        let mut sb = SockBuf::new(10_000);
        let data: Vec<u8> = (0..5000).map(|i| (i % 251) as u8).collect();
        let (c, _) = Chain::from_user_data(&pool, &data, ultrix_uses_clusters(data.len()));
        sb.append(c);
        let (copy, cost) = sb.peek_copy(&pool, 1000, 2000);
        assert!(copy.data_equals(&data[1000..3000]));
        assert_eq!(cost.bytes_copied, 0, "clusters share");
        assert_eq!(sb.len(), 5000, "peek does not consume");
    }

    #[test]
    fn socket_starts_running() {
        let s = Socket::new(4096);
        assert_eq!(s.proc_state, ProcState::Running);
        assert!(s.snd.is_empty());
        assert!(s.rcv.is_empty());
        assert_eq!(s.snd.hiwat, 4096);
    }
}
