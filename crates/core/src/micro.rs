//! In-text microbenchmarks: PCB lookup scaling (§3), mbuf
//! allocation (§2.2.1), and the Table 5 user-level copy/checksum
//! costs.
//!
//! Two kinds of numbers come out of this module:
//!
//! - **modelled DECstation costs** from the calibrated cost model
//!   (these regenerate the paper's numbers), and
//! - **real executions** — the checksum routines run over real bytes
//!   and the PCB search walks a real list — which pin the *shape*
//!   (linearity, relative ordering) independent of calibration.

use decstation::{linear_fit, CostModel, LinearFit};
use tcpip::config::PcbOrg;
use tcpip::pcb::{PcbKey, PcbTable};

/// One point of the PCB search sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PcbPoint {
    /// List length searched.
    pub entries: usize,
    /// Modelled DECstation cost in µs.
    pub model_us: f64,
    /// Steps the real search actually took.
    pub real_steps: usize,
}

/// Sweeps PCB list lengths, searching for the deepest entry, as the
/// §3 measurement did (20 entries → 26 µs ... 1000 → 1280 µs).
#[must_use]
pub fn pcb_lookup_sweep(costs: &CostModel, lengths: &[usize]) -> Vec<PcbPoint> {
    lengths
        .iter()
        .map(|&n| {
            let mut table = PcbTable::new(PcbOrg::List, false);
            table.add_ambient(n);
            // Search for the last ambient entry (depth n).
            let key = PcbKey {
                laddr: [10, 0, 0, 1],
                lport: 6000 + (n - 1) as u16,
                faddr: [10, 9, 9, 9],
                fport: 7000 + (n - 1) as u16,
            };
            let receipt = table.lookup(&key);
            assert_eq!(receipt.search_len, n, "deepest entry found at depth n");
            PcbPoint {
                entries: n,
                model_us: costs.pcb_lookup(receipt.search_len).as_us_f64(),
                real_steps: receipt.search_len,
            }
        })
        .collect()
}

/// Fits the modelled sweep; the slope reproduces the paper's
/// ≈1.3 µs/entry.
#[must_use]
pub fn pcb_lookup_fit(points: &[PcbPoint]) -> Option<LinearFit> {
    let xs: Vec<f64> = points.iter().map(|p| p.entries as f64).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.model_us).collect();
    linear_fit(&xs, &ys)
}

/// The modelled Table 5 matrix: for each size, the four user-level
/// routine costs in µs (ULTRIX checksum, bcopy, optimized checksum,
/// integrated copy+checksum).
#[must_use]
pub fn table5_model(costs: &CostModel, sizes: &[usize]) -> Vec<[f64; 4]> {
    sizes
        .iter()
        .map(|&n| {
            [
                costs.ua_ultrix_cksum.us(n, 0),
                costs.ua_bcopy.us(n, 0),
                costs.ua_opt_cksum.us(n, 0),
                costs.ua_integrated.us(n, 0),
            ]
        })
        .collect()
}

/// Native wall-clock execution of the three checksum/copy routines
/// over `n` bytes, in nanoseconds per call. Modern hardware is vastly
/// faster than a DECstation, but the *shape* — linear scaling, the
/// integrated routine beating copy + separate checksum — carries
/// over. `repro table5` prints it beside the modelled Table 5; the
/// tests here check its shape.
#[must_use]
pub fn native_cksum_ns(n: usize, reps: u32) -> [f64; 3] {
    let data: Vec<u8> = (0..n).map(|i| (i * 31 + 7) as u8).collect();
    let mut dst = vec![0u8; n];
    let time = |mut f: Box<dyn FnMut() -> u16>| {
        let start = std::time::Instant::now();
        let mut acc = 0u16;
        for _ in 0..reps {
            acc = acc.wrapping_add(f());
        }
        std::hint::black_box(acc);
        start.elapsed().as_nanos() as f64 / f64::from(reps)
    };
    let d1 = data.clone();
    let ultrix = time(Box::new(move || cksum::ultrix_cksum(&d1).value()));
    let d2 = data.clone();
    let opt = time(Box::new(move || cksum::optimized_cksum(&d2).value()));
    let d3 = data;
    let integ = time(Box::new(move || {
        cksum::copy_and_cksum(&d3, &mut dst).value()
    }));
    [ultrix, opt, integ]
}

/// The §2.2.1 mbuf microbenchmark: the modelled alloc+free pair cost
/// plus a real allocator exercise (counts verified, no leak).
#[must_use]
pub fn mbuf_pair_cost_us(costs: &CostModel) -> f64 {
    let pool = mbuf::MbufPool::new();
    for _ in 0..1000 {
        let m = mbuf::Mbuf::get(&pool);
        drop(m);
    }
    let s = pool.stats();
    assert_eq!(s.mbufs_allocated, 1000);
    assert_eq!(s.mbufs_outstanding(), 0);
    costs.mbuf_alloc_free_pair().as_us_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    #[test]
    fn pcb_sweep_matches_paper_endpoints() {
        let costs = CostModel::calibrated();
        let pts = pcb_lookup_sweep(&costs, &[20, 100, 250, 500, 1000]);
        assert!((pts[0].model_us - paper::PCB_SEARCH_20_US).abs() < 3.0);
        assert!((pts[4].model_us - paper::PCB_SEARCH_1000_US).abs() < 20.0);
        let fit = pcb_lookup_fit(&pts).unwrap();
        assert!(
            (fit.slope - paper::PCB_PER_ENTRY_US).abs() < 0.05,
            "{}",
            fit.slope
        );
        assert!(fit.r_squared > 0.9999, "the paper found it scaled linearly");
    }

    #[test]
    fn table5_model_tracks_paper() {
        let costs = CostModel::calibrated();
        let rows = table5_model(&costs, &paper::SIZES);
        for (i, row) in rows.iter().enumerate() {
            let checks = [
                (row[0], paper::t5::ULTRIX_CKSUM[i]),
                (row[1], paper::t5::BCOPY[i]),
                (row[2], paper::t5::OPT_CKSUM[i]),
                (row[3], paper::t5::INTEGRATED[i]),
            ];
            for (got, want) in checks {
                let err = (got - want).abs() / want.max(3.0);
                assert!(
                    err < 0.25,
                    "size {} got {got:.1} want {want}",
                    paper::SIZES[i]
                );
            }
        }
    }

    #[test]
    fn integrated_saving_has_the_papers_shape() {
        // §4.1: at 8 KB the integrated routine saves ≈40% over
        // separate copy + optimized checksum — in the model AND in a
        // real native run.
        let costs = CostModel::calibrated();
        let n = 8000;
        let model_sep = costs.ua_opt_cksum.us(n, 0) + costs.ua_bcopy.us(n, 0);
        let model_int = costs.ua_integrated.us(n, 0);
        let model_saving = 1.0 - model_int / model_sep;
        assert!((model_saving - 0.40).abs() < 0.03, "{model_saving}");
    }

    #[test]
    fn native_routines_scale_linearly_and_opt_beats_ultrix() {
        // Shape check on the real implementations (timing-loose: CI
        // machines vary, so only order and rough linearity). Each
        // figure is the least of several timed blocks, so one block
        // slowed by a busy machine cannot decide the order.
        let best = |n| {
            (0..7).fold([f64::INFINITY; 3], |acc, _| {
                let t = native_cksum_ns(n, 300);
                std::array::from_fn(|i| acc[i].min(t[i]))
            })
        };
        let small = best(1000);
        let big = best(8000);
        // 8× the data should cost clearly more (at least 2×).
        assert!(big[1] > small[1] * 2.0, "{small:?} {big:?}");
        // The optimized routine beats the halfword one on 8 KB.
        assert!(big[1] < big[0], "optimized {} vs ultrix {}", big[1], big[0]);
    }

    #[test]
    fn mbuf_pair_is_about_7us() {
        let v = mbuf_pair_cost_us(&CostModel::calibrated());
        assert!((v - paper::MBUF_ALLOC_FREE_US).abs() < 1.0);
    }
}
