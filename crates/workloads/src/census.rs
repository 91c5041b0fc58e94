//! The per-page census of a workload's traces: holder mask and access
//! count per touched page.
//!
//! The simulator builds its host population, pre-placement and sharing
//! distribution from the census, so none of them needs a map keyed by page.

use crate::trace::PackedTraces;
use vm_model::addr::Vpn;

/// Most GPUs a census holds: one bit each in a `u64` holder mask.
const MAX_GPUS: usize = 64;

/// Per touched page: the mask of GPUs that access it and its access
/// count. Touched pages are numbered densely in ascending VPN order; a
/// bitmap over the page span with a popcount prefix per 64-page word maps a
/// VPN to its number, so the per-page arrays are sized by the touched
/// pages, not by the (much larger) span.
#[derive(Debug)]
pub struct PageCensus {
    base_vpn: Vpn,
    gpus: usize,
    /// Bit `o % 64` of word `o / 64` is set when page `base_vpn + o` is
    /// touched.
    touched: Vec<u64>,
    /// `rank[w]`: touched pages in words `0..w`.
    rank: Vec<u32>,
    /// `holders[i]`: bit `g` set when GPU `g` accesses touched page `i`.
    holders: Vec<u64>,
    /// `accesses[i]`: accesses to touched page `i`, across GPUs.
    accesses: Vec<u64>,
}

impl PageCensus {
    /// Takes the census of `traces`.
    ///
    /// # Panics
    /// Panics if the workload has more than 64 GPUs ("a page census holds
    /// at most 64 GPUs").
    #[expect(
        clippy::indexing_slicing,
        reason = "every packed offset is < pages (checked when packing), so `offset / 64` indexes the span's words and the rank lookup a touched page"
    )]
    pub fn new(traces: &PackedTraces) -> PageCensus {
        assert!(
            traces.gpus() <= MAX_GPUS,
            "a page census holds at most 64 GPUs, not {}",
            traces.gpus()
        );
        #[expect(
            clippy::cast_possible_truncation,
            reason = "pages ≤ 2^31 (asserted when packing), so the word count fits"
        )]
        let words = traces.pages().div_ceil(64) as usize;
        let mut touched = vec![0u64; words];
        for &word in (0..traces.gpus()).flat_map(|g| traces.words(g)) {
            let offset = word >> 1;
            touched[(offset / 64) as usize] |= 1 << (offset % 64);
        }
        let mut rank = Vec::with_capacity(words);
        let mut pages = 0u32;
        for bits in &touched {
            rank.push(pages);
            pages += bits.count_ones();
        }
        let mut census = PageCensus {
            base_vpn: traces.base_vpn(),
            gpus: traces.gpus(),
            touched,
            rank,
            holders: vec![0; pages as usize],
            accesses: vec![0; pages as usize],
        };
        for g in 0..traces.gpus() {
            for &word in traces.words(g) {
                let i = census.slot(word >> 1);
                census.holders[i] |= 1 << g;
                census.accesses[i] += 1;
            }
        }
        census
    }

    /// Number of the touched page at span offset `offset`, which must be
    /// touched.
    #[expect(
        clippy::indexing_slicing,
        reason = "callers pass offsets of touched pages, which lie inside the span's words"
    )]
    fn slot(&self, offset: u32) -> usize {
        let w = (offset / 64) as usize;
        let below = self.touched[w] & ((1u64 << (offset % 64)) - 1);
        (self.rank[w] + below.count_ones()) as usize
    }

    /// Number of distinct touched pages.
    pub fn len(&self) -> usize {
        self.holders.len()
    }

    /// Whether no page is touched.
    pub fn is_empty(&self) -> bool {
        self.holders.is_empty()
    }

    /// The number of `vpn` among the touched pages, or `None` if the
    /// workload never touches it.
    pub fn index(&self, vpn: Vpn) -> Option<usize> {
        let offset = u32::try_from(vpn.0.checked_sub(self.base_vpn.0)?).ok()?;
        let bits = *self.touched.get((offset / 64) as usize)?;
        ((bits >> (offset % 64)) & 1 == 1).then(|| self.slot(offset))
    }

    /// The touched pages in ascending VPN order; the `i`-th is page `i`.
    pub fn pages(&self) -> impl Iterator<Item = Vpn> + '_ {
        let base = self.base_vpn.0;
        self.touched.iter().enumerate().flat_map(move |(w, &bits)| {
            let mut rest = bits;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    Vpn(base + w as u64 * 64 + u64::from(bit))
                })
            })
        })
    }

    /// The paper's Figure 4 measure: `shares[d-1]` is the fraction of
    /// accesses that reference pages shared by exactly `d` GPUs.
    #[expect(
        clippy::indexing_slicing,
        reason = "a touched page has 1..=gpus holder bits, so `d - 1` indexes the gpus counts"
    )]
    pub fn sharing_distribution(&self) -> Vec<f64> {
        let mut counts = vec![0u64; self.gpus];
        for (&h, &n) in self.holders.iter().zip(&self.accesses) {
            counts[h.count_ones() as usize - 1] += n;
        }
        let total: u64 = counts.iter().sum();
        counts
            .into_iter()
            .map(|c| c as f64 / total.max(1) as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::tests::wl;
    use crate::trace::Workload;
    use crate::{AppId, DnnModel, Scale, WorkloadSource};
    use std::collections::BTreeMap;

    /// Recounts every page's holder mask and access count with a
    /// `BTreeMap` and checks the census, and its sharing distribution,
    /// against the recount.
    fn assert_matches_naive_recount(w: &Workload) {
        let gpus = w.traces.gpus();
        let mut naive: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for g in 0..gpus {
            for a in w.traces.accesses(g) {
                let (holders, accesses) = naive.entry(a.vpn.0).or_default();
                *holders |= 1 << g;
                *accesses += 1;
            }
        }
        let what = format!("{} on {gpus} GPUs", w.name);
        let c = PageCensus::new(&w.traces);
        let pages: Vec<u64> = c.pages().map(|v| v.0).collect();
        assert_eq!(pages, naive.keys().copied().collect::<Vec<_>>(), "{what}");
        let holders: Vec<u64> = naive.values().map(|e| e.0).collect();
        let accesses: Vec<u64> = naive.values().map(|e| e.1).collect();
        assert_eq!(c.holders, holders, "{what}");
        assert_eq!(c.accesses, accesses, "{what}");
        for probe in pages.iter().flat_map(|&v| [v.saturating_sub(1), v, v + 1]) {
            let expected = pages.binary_search(&probe).ok();
            assert_eq!(c.index(Vpn(probe)), expected, "{what}: {probe:#x}");
        }
        let mut counts = vec![0u64; gpus];
        for a in (0..gpus).flat_map(|g| w.traces.accesses(g)) {
            counts[naive[&a.vpn.0].0.count_ones() as usize - 1] += 1;
        }
        let total = w.total_accesses().max(1) as f64;
        let dist: Vec<f64> = counts.iter().map(|&n| n as f64 / total).collect();
        assert_eq!(c.sharing_distribution(), dist, "{what}");
    }

    #[test]
    fn census_matches_a_naive_recount() {
        let names = AppId::ALL
            .map(AppId::name)
            .into_iter()
            .chain(DnnModel::ALL.map(DnnModel::name));
        for name in names {
            let source = WorkloadSource::named(name, Scale::Test).unwrap();
            for gpus in [1, 2, 4, 32] {
                assert_matches_naive_recount(&source.generate(gpus, 42));
            }
        }
        // Offsets 0, 63, 64, 130 and 199 straddle four bitmap words.
        assert_matches_naive_recount(&wl(
            500,
            200,
            vec![
                vec![(699, false), (500, false), (564, true), (699, false)],
                vec![(563, false), (630, false), (699, true)],
                vec![],
                vec![(699, true), (500, true)],
            ],
        ));
    }

    #[test]
    fn empty_workload_has_an_empty_census() {
        let c = PageCensus::new(&wl(0, 0, vec![vec![], vec![]]).traces);
        assert!(c.is_empty());
        assert_eq!(c.pages().count(), 0);
        assert_eq!(c.sharing_distribution(), [0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "a page census holds at most 64 GPUs")]
    fn more_than_64_gpus_is_refused() {
        PageCensus::new(&wl(0, 1, vec![vec![]; 65]).traces);
    }
}
