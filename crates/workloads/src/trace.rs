//! Trace containers: per-GPU streams of memory accesses, 4 bytes each.
//!
//! Generators pack each access as they draw it, so a trace is never held
//! in any other form; the simulator copies the packed words and decodes one
//! [`Access`] per issue.

use crate::census::PageCensus;
use vm_model::addr::Vpn;

/// Largest page span the packed encoding holds: the offset takes the 31
/// bits above the write bit.
pub(crate) const MAX_SPAN: u64 = 1 << 31;

/// One memory access: the decoded view of a packed trace word
/// ([`PackedTraces::get`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// The page touched (the simulator adds the in-page offset).
    pub vpn: Vpn,
    /// Whether this is a store.
    pub is_write: bool,
}

/// A workload's traces at 4 bytes per access. Access `i` of GPU `g` is
/// stored as `(vpn − base_vpn) << 1 | is_write`, and every access lies in
/// `[base_vpn, base_vpn + pages)`: the generators and
/// [`Workload::from_accesses`], the only ways to build one, check each
/// access as they pack it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedTraces {
    base_vpn: Vpn,
    pages: u64,
    traces: Vec<Vec<u32>>,
}

impl PackedTraces {
    /// Number of GPU traces.
    pub fn gpus(&self) -> usize {
        self.traces.len()
    }

    /// First VPN of the page span.
    pub fn base_vpn(&self) -> Vpn {
        self.base_vpn
    }

    /// Pages in the span: every VPN lies in `[base_vpn, base_vpn + pages)`.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// Length of GPU `gpu`'s trace (0 for a GPU outside the workload).
    pub fn len(&self, gpu: usize) -> usize {
        self.words(gpu).len()
    }

    /// Total accesses across GPUs.
    pub fn total_accesses(&self) -> u64 {
        self.traces.iter().map(|t| t.len() as u64).sum()
    }

    /// Access `i` of GPU `gpu`'s trace.
    pub fn get(&self, gpu: usize, i: usize) -> Option<Access> {
        self.words(gpu).get(i).map(|&word| self.decode(word))
    }

    /// GPU `gpu`'s accesses in program order (none for a GPU outside the
    /// workload).
    #[cfg(test)]
    pub(crate) fn accesses(&self, gpu: usize) -> impl Iterator<Item = Access> + '_ {
        self.words(gpu).iter().map(|&word| self.decode(word))
    }

    /// GPU `gpu`'s packed words.
    pub(crate) fn words(&self, gpu: usize) -> &[u32] {
        self.traces.get(gpu).map_or(&[], Vec::as_slice)
    }

    fn decode(&self, word: u32) -> Access {
        Access {
            vpn: Vpn(self.base_vpn.0 + u64::from(word >> 1)),
            is_write: word & 1 == 1,
        }
    }
}

/// The page span a workload's traces lie in, checked to fit the 4-byte
/// encoding.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    base_vpn: Vpn,
    pages: u64,
}

impl Span {
    /// The span `[base_vpn, base_vpn + pages)`.
    ///
    /// # Panics
    /// Panics if `pages` exceeds 2^31 ("workload page span does not fit the
    /// 4-byte trace encoding").
    pub(crate) fn new(base_vpn: Vpn, pages: u64) -> Span {
        assert!(
            pages <= MAX_SPAN,
            "workload page span does not fit the 4-byte trace encoding: {pages} pages > 2^31"
        );
        Span { base_vpn, pages }
    }

    /// A writer for one GPU's trace, with room for `capacity` accesses.
    pub(crate) fn writer(self, capacity: usize) -> TraceWriter {
        TraceWriter {
            span: self,
            words: Vec::with_capacity(capacity),
        }
    }

    /// The traces `writers` wrote, one per GPU in order.
    pub(crate) fn finish(self, writers: Vec<TraceWriter>) -> PackedTraces {
        PackedTraces {
            base_vpn: self.base_vpn,
            pages: self.pages,
            traces: writers.into_iter().map(|w| w.words).collect(),
        }
    }
}

/// Packs one GPU's accesses as they are drawn; see [`PackedTraces`].
#[derive(Debug)]
pub(crate) struct TraceWriter {
    span: Span,
    words: Vec<u32>,
}

impl TraceWriter {
    /// Appends `access`.
    ///
    /// # Panics
    /// Panics if `access` lies outside the span ("trace access outside the
    /// workload's page span").
    #[inline]
    pub(crate) fn push(&mut self, access: Access) {
        let Span { base_vpn, pages } = self.span;
        let offset = access.vpn.0.wrapping_sub(base_vpn.0);
        assert!(
            offset < pages,
            "trace access outside the workload's page span: {:#x} is not within {pages} pages from {:#x}",
            access.vpn.0,
            base_vpn.0
        );
        #[expect(
            clippy::cast_possible_truncation,
            reason = "offset < pages ≤ 2^31, asserted here and in Span::new"
        )]
        let offset = offset as u32;
        self.words.push((offset << 1) | u32::from(access.is_write));
    }
}

/// A complete multi-GPU workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Human-readable name (app abbreviation or DNN model).
    pub name: String,
    /// One trace per GPU, packed.
    pub traces: PackedTraces,
    /// Compute cycles per warp between accesses.
    pub compute_gap: u64,
}

impl Workload {
    /// A workload from per-GPU access lists, packed through the same
    /// checks the generators use.
    ///
    /// # Panics
    /// Panics if `pages` exceeds 2^31 ("workload page span does not fit the
    /// 4-byte trace encoding") or an access lies outside
    /// `[base_vpn, base_vpn + pages)` ("trace access outside the workload's
    /// page span").
    ///
    /// # Example
    ///
    /// ```
    /// use vm_model::addr::Vpn;
    /// use workloads::{Access, Workload};
    ///
    /// let store = Access { vpn: Vpn(0x41), is_write: true };
    /// let wl = Workload::from_accesses("hand", Vpn(0x40), 4, vec![vec![store], vec![]], 2);
    /// assert_eq!(wl.traces.get(0, 0), Some(store));
    /// assert_eq!(wl.total_accesses(), 1);
    /// ```
    pub fn from_accesses(
        name: &str,
        base_vpn: Vpn,
        pages: u64,
        traces: Vec<Vec<Access>>,
        compute_gap: u64,
    ) -> Workload {
        let span = Span::new(base_vpn, pages);
        let writers = traces
            .into_iter()
            .map(|t| {
                let mut w = span.writer(t.len());
                t.into_iter().for_each(|a| w.push(a));
                w
            })
            .collect();
        Workload {
            name: name.to_string(),
            traces: span.finish(writers),
            compute_gap,
        }
    }

    /// Total accesses across GPUs.
    pub fn total_accesses(&self) -> u64 {
        self.traces.total_accesses()
    }

    /// Modelled instructions across GPUs (for MPKI).
    pub fn total_instructions(&self) -> u64 {
        self.total_accesses() * (self.compute_gap + 1)
    }

    /// Per-page sharing degree: for each touched page, how many distinct
    /// GPUs access it — and, as the paper's Figure 4 measures it, the
    /// fraction of *accesses* that reference pages shared by 1, 2, …, N
    /// GPUs. Returns `shares[d-1] = fraction of accesses to pages shared by
    /// exactly d GPUs` (see [`PageCensus::sharing_distribution`]).
    ///
    /// # Panics
    /// Like [`PageCensus::new`].
    pub fn access_sharing_distribution(&self) -> Vec<f64> {
        PageCensus::new(&self.traces).sharing_distribution()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A workload from per-GPU `(vpn, is_write)` lists.
    pub(crate) fn wl(base: u64, pages: u64, traces: Vec<Vec<(u64, bool)>>) -> Workload {
        let traces = traces
            .into_iter()
            .map(|t| {
                t.into_iter()
                    .map(|(v, w)| Access {
                        vpn: Vpn(v),
                        is_write: w,
                    })
                    .collect()
            })
            .collect();
        Workload::from_accesses("hand", Vpn(base), pages, traces, 3)
    }

    /// The fraction of GPU `gpu`'s accesses that are writes, read from the
    /// packed words' write bits.
    pub(crate) fn write_fraction(w: &Workload, gpu: usize) -> f64 {
        let words = w.traces.words(gpu);
        let writes = words.iter().filter(|&&word| word & 1 == 1).count();
        writes as f64 / words.len().max(1) as f64
    }

    #[test]
    fn totals() {
        let w = wl(0, 16, vec![vec![(1, false), (2, true)], vec![(3, false)]]);
        assert_eq!(w.total_accesses(), 3);
        assert_eq!(w.total_instructions(), 12);
    }

    #[test]
    fn trace_stats() {
        let w = wl(
            0,
            16,
            vec![vec![(1, false), (1, true), (2, true), (1, false)]],
        );
        assert_eq!(w.traces.len(0), 4);
        assert_eq!(write_fraction(&w, 0), 0.5);
    }

    #[test]
    fn sharing_distribution_counts_accesses_not_pages() {
        // Page 1 shared by both GPUs and hot; page 2 private to GPU0.
        let w = wl(
            0,
            16,
            vec![
                vec![(1, false), (1, false), (1, false), (2, false)],
                vec![(1, false), (1, false)],
            ],
        );
        let dist = w.access_sharing_distribution();
        assert_eq!(dist.len(), 2);
        // 5 of 6 accesses go to the page shared by 2.
        assert!((dist[1] - 5.0 / 6.0).abs() < 1e-9);
        assert!((dist[0] - 1.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_edge_cases() {
        let w = wl(0, 16, vec![vec![]]);
        assert_eq!(w.traces.len(0), 0);
        assert_eq!(w.traces.accesses(0).count(), 0);
        assert_eq!(write_fraction(&w, 0), 0.0);
    }

    #[test]
    fn packing_round_trips_every_access() {
        let w = wl(
            0x1000,
            200,
            vec![
                vec![(0x1000, true), (0x10c7, false), (0x1040, true)],
                vec![],
            ],
        );
        let p = &w.traces;
        assert_eq!(p.gpus(), 2);
        assert_eq!((p.base_vpn(), p.pages()), (Vpn(0x1000), 200));
        assert_eq!((p.len(0), p.len(1), p.len(2)), (3, 0, 0));
        let expected = [(0x1000, true), (0x10c7, false), (0x1040, true)].map(|(v, w)| Access {
            vpn: Vpn(v),
            is_write: w,
        });
        for (i, &a) in expected.iter().enumerate() {
            assert_eq!(p.get(0, i), Some(a));
        }
        assert!(p.accesses(0).eq(expected));
        assert_eq!(p.get(0, 3), None);
        assert_eq!(p.get(1, 0), None);
        assert_eq!(p.accesses(2).count(), 0);
    }

    #[test]
    #[should_panic(expected = "trace access outside the workload's page span")]
    fn access_above_the_span_is_refused() {
        wl(100, 16, vec![vec![(100, false), (116, false)]]);
    }

    #[test]
    #[should_panic(expected = "trace access outside the workload's page span")]
    fn access_below_the_base_is_refused() {
        wl(100, 16, vec![vec![(99, false)]]);
    }

    #[test]
    #[should_panic(expected = "workload page span does not fit the 4-byte trace encoding")]
    fn oversized_span_is_refused() {
        wl(0, MAX_SPAN + 1, vec![vec![]]);
    }
}
