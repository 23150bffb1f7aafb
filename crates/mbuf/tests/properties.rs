//! Property-based tests of the mbuf subsystem invariants the protocol
//! stack relies on.

use mbuf::chain::{expected_mbuf_count, ultrix_uses_clusters};
use mbuf::{Chain, MbufPool};
use proptest::prelude::*;

fn payload(n: usize, seed: u8) -> Vec<u8> {
    (0..n)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Data survives a fill round-trip regardless of buffer kind, and
    /// mbuf counts match the closed form.
    #[test]
    fn fill_roundtrip(n in 0usize..20_000, seed in any::<u8>()) {
        let pool = MbufPool::new();
        let data = payload(n, seed);
        let use_cl = ultrix_uses_clusters(n);
        let (chain, cost) = Chain::from_user_data(&pool, &data, use_cl);
        prop_assert!(chain.data_equals(&data));
        prop_assert_eq!(chain.len(), n);
        prop_assert_eq!(cost.bytes_copied, n);
        prop_assert_eq!(chain.mbuf_count(), expected_mbuf_count(n));
    }

    /// `copy_range` of any subrange reproduces that subrange and never
    /// copies bytes out of clusters.
    #[test]
    fn copy_range_correct(
        n in 1usize..20_000,
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
        seed in any::<u8>(),
    ) {
        let pool = MbufPool::new();
        let data = payload(n, seed);
        let use_cl = ultrix_uses_clusters(n);
        let (chain, _) = Chain::from_user_data(&pool, &data, use_cl);
        let off = ((n as f64) * a) as usize;
        let len = (((n - off) as f64) * b) as usize;
        let (copy, cost) = chain.copy_range(&pool, off, len);
        prop_assert!(copy.data_equals(&data[off..off + len]));
        if use_cl {
            prop_assert_eq!(cost.bytes_copied, 0, "clusters must share");
        } else {
            prop_assert_eq!(cost.bytes_copied, len, "small mbufs must deep-copy");
        }
    }

    /// Trimming then reading yields the suffix; emptied mbufs are freed.
    #[test]
    fn trim_front_is_suffix(n in 1usize..8_000, frac in 0.0f64..1.0, seed in any::<u8>()) {
        let pool = MbufPool::new();
        let data = payload(n, seed);
        let (mut chain, _) = Chain::from_user_data(&pool, &data, ultrix_uses_clusters(n));
        let cut = ((n as f64) * frac) as usize;
        let _ = chain.trim_front(cut);
        prop_assert_eq!(chain.len(), n - cut);
        prop_assert!(chain.data_equals(&data[cut..]));
    }

    /// copy_out agrees with to_vec on arbitrary windows.
    #[test]
    fn copy_out_window(n in 1usize..8_000, a in 0.0f64..1.0, b in 0.0f64..1.0, seed in any::<u8>()) {
        let pool = MbufPool::new();
        let data = payload(n, seed);
        let (chain, _) = Chain::from_user_data(&pool, &data, ultrix_uses_clusters(n));
        let off = ((n as f64) * a) as usize;
        let len = (((n - off) as f64) * b) as usize;
        let mut dst = vec![0u8; len];
        let _ = chain.copy_out(off, &mut dst);
        prop_assert_eq!(&dst[..], &data[off..off + len]);
    }

    /// The integrated fill stores partial checksums that combine to
    /// the checksum of the whole, for any size.
    #[test]
    fn integrated_fill_checksums(n in 0usize..20_000, seed in any::<u8>()) {
        let pool = MbufPool::new();
        let data = payload(n, seed);
        let (chain, _) = Chain::from_user_data_cksum(&pool, &data, ultrix_uses_clusters(n));
        let stored = chain.stored_checksum().expect("partials present");
        prop_assert_eq!(stored, cksum::optimized_cksum(&data));
        let (walked, bytes) = chain.checksum_walk();
        prop_assert_eq!(walked, stored);
        prop_assert_eq!(bytes, n);
    }

    /// No operation sequence leaks buffers.
    #[test]
    fn no_leaks(n in 1usize..10_000, cut_frac in 0.0f64..1.0, seed in any::<u8>()) {
        let pool = MbufPool::new();
        {
            let data = payload(n, seed);
            let (chain, _) = Chain::from_user_data(&pool, &data, ultrix_uses_clusters(n));
            let (mut copy, _) = chain.copy_range(&pool, 0, n);
            let _ = copy.prepend_header(&pool, &[0u8; 40]);
            let _ = copy.trim_front(((n as f64) * cut_frac) as usize + 40);
            drop(chain);
        }
        let s = pool.stats();
        prop_assert_eq!(s.mbufs_outstanding(), 0);
        prop_assert_eq!(s.clusters_outstanding(), 0);
    }

    /// Any sequence of fill, `copy_range`, `append`, `trim_front`,
    /// `trim_back_bytes` and `prepend_header` over a few chains keeps
    /// each chain's kept byte count equal to its flattened length and
    /// its bytes equal to a `Vec` model, and dropping them leaks no
    /// mbuf or cluster.
    #[test]
    fn kept_length_tracks_every_operation(
        ops in proptest::collection::vec((0u8..7, any::<u16>(), any::<u16>()), 1..60),
        seed in any::<u8>(),
    ) {
        let pool = MbufPool::new();
        {
            let mut chains: Vec<(Chain, Vec<u8>)> = Vec::new();
            for (op, a, b) in ops {
                let (a, b) = (usize::from(a), usize::from(b));
                let pick = |k: usize, n: usize| (n > 0).then(|| k % n);
                match op {
                    0 => {
                        let data = payload(a % 9_000, seed ^ b as u8);
                        let clusters = ultrix_uses_clusters(data.len()) || b % 4 == 0;
                        let (chain, _) = Chain::from_user_data(&pool, &data, clusters);
                        chains.push((chain, data));
                    }
                    1 => if let Some(i) = pick(a, chains.len()) {
                        let n = chains[i].1.len();
                        let off = b % (n + 1);
                        let len = (a / 7) % (n - off + 1);
                        let (copy, _) = chains[i].0.copy_range(&pool, off, len);
                        let model = chains[i].1[off..off + len].to_vec();
                        chains.push((copy, model));
                    },
                    2 => if chains.len() >= 2 {
                        let j = b % chains.len();
                        let (other, model) = chains.swap_remove(j);
                        let i = a % chains.len();
                        chains[i].0.append(other);
                        chains[i].1.extend(model);
                    },
                    3 => if let Some(i) = pick(a, chains.len()) {
                        // Trims may run past the end: the chain empties.
                        let len = chains[i].1.len();
                        let n = b % (len + 50);
                        let _ = chains[i].0.trim_front(n);
                        chains[i].1.drain(..n.min(len));
                    },
                    4 => if let Some(i) = pick(a, chains.len()) {
                        let len = chains[i].1.len();
                        let n = b % (len + 50);
                        chains[i].0.trim_back_bytes(n);
                        chains[i].1.truncate(len.saturating_sub(n));
                    },
                    5 => if let Some(i) = pick(a, chains.len()) {
                        let header = payload(b % 41, seed.wrapping_add(1));
                        let _ = chains[i].0.prepend_header(&pool, &header);
                        chains[i].1.splice(0..0, header);
                    },
                    _ => if let Some(i) = pick(a, chains.len()) {
                        drop(chains.swap_remove(i));
                    },
                }
                for (chain, model) in &chains {
                    prop_assert_eq!(chain.len(), chain.to_vec().len());
                    prop_assert_eq!(chain.is_empty(), model.is_empty());
                    prop_assert!(chain.data_equals(model));
                }
            }
        }
        let s = pool.stats();
        prop_assert_eq!(s.mbufs_outstanding(), 0);
        prop_assert_eq!(s.clusters_outstanding(), 0);
    }
}
