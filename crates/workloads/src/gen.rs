//! The pattern engine turning a [`WorkloadSpec`] into per-GPU traces.
//!
//! The shared virtual footprint is laid out as `[hot region | per-GPU
//! partitions]`. Each GPU's stream interleaves:
//!
//! * **reuse** — staying on the current page (temporal locality, the MPKI
//!   knob);
//! * **hot accesses** — the globally shared region every GPU hammers
//!   (KMeans centroids, MM's broadcast operand) → pages shared by all;
//! * **cross accesses** — halo rows of the neighbouring partition
//!   (adjacent) or strides into other GPUs' partitions (scatter-gather) →
//!   pages shared by 2–3;
//! * **own-partition streaming** — a sequential cursor over the GPU's own
//!   chunk.

use sim_engine::rng::{DetRng, Zipf};
use vm_model::addr::Vpn;

use crate::spec::{AccessPattern, AppId, WorkloadSpec};
use crate::trace::{Access, Span, TraceWriter, Workload};

/// How a scatter-gather app picks its cross-partition target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PartnerStyle {
    /// XOR-pairing: GPU g exchanges with g^1 (MT's transpose blocks, BS's
    /// bitonic phases) → pages shared by exactly 2.
    Pairwise,
    /// Ring neighbour: g reads from g+1 (IM's strided patches).
    Neighbor,
    /// Uniform over all other GPUs (MM's gathered rows).
    AnyOther,
}

fn partner_style(app: AppId) -> PartnerStyle {
    match app {
        AppId::Mt | AppId::Bs => PartnerStyle::Pairwise,
        AppId::Im => PartnerStyle::Neighbor,
        _ => PartnerStyle::AnyOther,
    }
}

/// Fraction of each partition that forms the halo shared with a neighbour.
const HALO_FRACTION: f64 = 0.06;

/// Probability a hot-region access targets the GPU's affine (dominant)
/// subset of hot pages rather than the whole region.
const HOT_AFFINITY: f64 = 0.65;

/// Logical pages per 512-page radix region. Real allocations are scattered
/// chunks across a heap, not one contiguous range; spreading 16-page chunks
/// across L2-level regions reproduces realistic page-walk-cache pressure
/// (one contiguous range would make the 128-entry PWC trivially perfect)
/// while keeping enough per-region density for IRMB base merging.
pub const PAGES_PER_REGION: u64 = 16;

/// Maps a logical page index to its (spread) VPN offset from the base.
#[inline]
pub fn spread(index: u64) -> u64 {
    (index / PAGES_PER_REGION) * 512 + (index % PAGES_PER_REGION)
}

/// Base VPN of every generated workload. A non-zero base exercises real
/// multi-level radix indices instead of clustering everything under prefix
/// zero.
pub const WORKLOAD_BASE_VPN: u64 = 0x0AB_4400_0000 >> 12; // 45-bit space

struct Layout {
    base: u64,
    hot_pages: u64,
    chunk: u64,
    n_gpus: u64,
    /// Total logical pages addressable (covers the zipf domain, which spans
    /// the whole footprint regardless of the chunk partitioning remainder).
    logical_pages: u64,
}

impl Layout {
    fn new(spec: &WorkloadSpec, n_gpus: usize) -> Layout {
        let hot = spec.hot_pages.min(spec.pages / 2);
        let cold = spec.pages - hot;
        Layout {
            base: WORKLOAD_BASE_VPN,
            hot_pages: hot,
            chunk: (cold / n_gpus as u64).max(1),
            n_gpus: n_gpus as u64,
            logical_pages: spec.pages,
        }
    }

    fn hot(&self, idx: u64) -> Vpn {
        Vpn(self.base + spread(idx % self.hot_pages.max(1)))
    }

    fn chunk_page(&self, gpu: u64, idx: u64) -> Vpn {
        let logical = self.hot_pages + (gpu % self.n_gpus) * self.chunk + idx % self.chunk;
        Vpn(self.base + spread(logical))
    }

    /// A page in the halo band at the *start* of `gpu`'s chunk (the band a
    /// lower-numbered neighbour also touches).
    fn halo_page(&self, gpu: u64, rng: &mut DetRng) -> Vpn {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "deliberate truncation of a scaled fraction; chunk sizes sit far below 2^53"
        )]
        let width = ((self.chunk as f64 * HALO_FRACTION) as u64).max(1);
        self.chunk_page(gpu, rng.below(width))
    }

    /// The VA span (in pages) covering the spread layout.
    fn va_span(&self) -> u64 {
        let max_logical = (self.hot_pages + self.chunk * self.n_gpus).max(self.logical_pages);
        spread(max_logical) + 1
    }
}

/// Generates the deterministic multi-GPU trace set for `spec`.
///
/// # Panics
/// Panics if `n_gpus == 0`.
///
/// # Example
///
/// ```
/// use workloads::{generate, AppId, Scale, WorkloadSpec};
/// let spec = WorkloadSpec::paper_default(AppId::Km, Scale::Test);
/// let a = generate(&spec, 4, 1);
/// let b = generate(&spec, 4, 1);
/// assert_eq!(a.traces, b.traces); // deterministic
/// ```
pub fn generate(spec: &WorkloadSpec, n_gpus: usize, seed: u64) -> Workload {
    assert!(n_gpus > 0, "need at least one GPU");
    let layout = Layout::new(spec, n_gpus);
    #[expect(
        clippy::cast_possible_truncation,
        reason = "u64 → usize cannot truncate: sim_engine refuses to build for non-64-bit hosts"
    )]
    let zipf = if spec.zipf_theta > 0.0 {
        Some(Zipf::new(spec.pages as usize, spec.zipf_theta))
    } else {
        None
    };
    let span = Span::new(Vpn(layout.base), layout.va_span());
    let mut root = DetRng::seed(seed ^ 0x1D11_u64.wrapping_mul(spec.app as u64 + 1));
    let writers = (0..n_gpus)
        .map(|g| {
            let mut rng = root.fork(g as u64 + 1);
            #[expect(
                clippy::cast_possible_truncation,
                reason = "u64 → usize cannot truncate: sim_engine refuses to build for non-64-bit hosts"
            )]
            let mut trace = span.writer(spec.accesses_per_gpu as usize);
            generate_gpu(spec, &layout, zipf.as_ref(), g, n_gpus, &mut rng, &mut trace);
            trace
        })
        .collect();
    Workload {
        name: spec.app.name().to_string(),
        traces: span.finish(writers),
        compute_gap: spec.compute_gap,
    }
}

fn generate_gpu(
    spec: &WorkloadSpec,
    layout: &Layout,
    zipf: Option<&Zipf>,
    gpu: usize,
    n_gpus: usize,
    rng: &mut DetRng,
    trace: &mut TraceWriter,
) {
    let g = gpu as u64;
    let style = partner_style(spec.app);
    let mut cursor: u64 = rng.below(layout.chunk.max(1));
    let mut current = layout.chunk_page(g, cursor);
    for _ in 0..spec.accesses_per_gpu {
        if !rng.chance(spec.reuse) {
            current = if rng.chance(spec.hot_fraction) && layout.hot_pages > 0 {
                // Globally shared hot region. Every GPU touches every hot
                // page (the all-GPU sharing of Figure 4), but each page has
                // a *dominant* accessor — the phase/ownership affinity real
                // iterative apps exhibit — which is what makes
                // counter-based migration pay off over first-touch
                // placement (Figure 2).
                let idx = if rng.chance(HOT_AFFINITY) {
                    let stride = n_gpus as u64;
                    let slots = layout.hot_pages / stride + 1;
                    (rng.below(slots) * stride + g) % layout.hot_pages
                } else {
                    // Mild skew toward low indices for the rest.
                    rng.below(layout.hot_pages).min(rng.below(layout.hot_pages))
                };
                layout.hot(idx)
            } else {
                match spec.app.pattern() {
                    AccessPattern::Random => match zipf {
                        Some(z) => Vpn(layout.base + spread(z.sample(rng) as u64 % spec.pages)),
                        // Uniform random exchanges with a phase partner.
                        None => {
                            let partner = pick_partner(style, g, n_gpus, rng);
                            if rng.chance(spec.cross_fraction) {
                                layout.chunk_page(partner, rng.below(layout.chunk))
                            } else {
                                layout.chunk_page(g, rng.below(layout.chunk))
                            }
                        }
                    },
                    AccessPattern::Adjacent => {
                        if rng.chance(spec.cross_fraction) {
                            // Halo exchange with ring neighbours: the band at
                            // the start of our chunk (shared with g-1) or of
                            // the next chunk (shared with g+1).
                            let target = if rng.chance(0.5) {
                                g
                            } else {
                                (g + 1) % n_gpus as u64
                            };
                            layout.halo_page(target, rng)
                        } else {
                            cursor += 1;
                            layout.chunk_page(g, cursor)
                        }
                    }
                    AccessPattern::ScatterGather => {
                        if rng.chance(spec.cross_fraction) {
                            let partner = pick_partner(style, g, n_gpus, rng);
                            layout.chunk_page(partner, rng.below(layout.chunk))
                        } else {
                            cursor += 1;
                            layout.chunk_page(g, cursor)
                        }
                    }
                }
            };
        }
        trace.push(Access {
            vpn: current,
            is_write: rng.chance(spec.write_fraction),
        });
    }
}

fn pick_partner(style: PartnerStyle, g: u64, n_gpus: usize, rng: &mut DetRng) -> u64 {
    let n = n_gpus as u64;
    if n == 1 {
        return 0;
    }
    match style {
        PartnerStyle::Pairwise => {
            let p = g ^ 1;
            if p < n {
                p
            } else {
                (g + 1) % n
            }
        }
        PartnerStyle::Neighbor => (g + 1) % n,
        PartnerStyle::AnyOther => {
            let r = rng.below(n - 1);
            if r >= g {
                r + 1
            } else {
                r
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Scale;
    use crate::trace::tests::write_fraction;

    fn gen(app: AppId) -> Workload {
        generate(&WorkloadSpec::paper_default(app, Scale::Test), 4, 42)
    }

    #[test]
    fn deterministic_per_seed() {
        let a = gen(AppId::Pr);
        let b = gen(AppId::Pr);
        assert_eq!(a.traces, b.traces);
        let c = generate(&WorkloadSpec::paper_default(AppId::Pr, Scale::Test), 4, 43);
        assert_ne!(a.traces.words(0), c.traces.words(0));
    }

    #[test]
    fn all_vpns_in_footprint() {
        for app in AppId::ALL {
            let w = gen(app);
            let (base, pages) = (w.traces.base_vpn().0, w.traces.pages());
            for a in (0..4).flat_map(|g| w.traces.accesses(g)) {
                assert!(
                    a.vpn.0 >= base && a.vpn.0 < base + pages,
                    "{app}: {:#x} outside [{base:#x},{:#x})",
                    a.vpn.0,
                    base + pages
                );
            }
        }
    }

    #[test]
    fn trace_lengths_match_spec() {
        let spec = WorkloadSpec::paper_default(AppId::Sc, Scale::Test);
        let w = generate(&spec, 3, 7);
        assert_eq!(w.traces.gpus(), 3);
        for g in 0..3 {
            assert_eq!(w.traces.len(g) as u64, spec.accesses_per_gpu);
        }
    }

    #[test]
    fn write_fraction_tracks_spec() {
        let spec = WorkloadSpec::paper_default(AppId::Mt, Scale::Small);
        let w = generate(&spec, 2, 5);
        let wf = write_fraction(&w, 0);
        assert!((wf - spec.write_fraction).abs() < 0.05, "observed {wf}");
    }

    #[test]
    fn hot_apps_share_by_all_gpus() {
        // KM and PR: most accesses land on pages touched by all 4 GPUs
        // (Figure 4).
        for app in [AppId::Km, AppId::Pr, AppId::Mm] {
            let w = generate(&WorkloadSpec::paper_default(app, Scale::Small), 4, 11);
            let dist = w.access_sharing_distribution();
            assert!(
                dist[3] > 0.3,
                "{app}: shared-by-4 access share too low: {dist:?}"
            );
        }
    }

    #[test]
    fn adjacent_apps_share_pairwise() {
        for app in [AppId::St, AppId::C2d] {
            let w = generate(&WorkloadSpec::paper_default(app, Scale::Small), 4, 11);
            let dist = w.access_sharing_distribution();
            assert!(
                dist[1] > 0.15,
                "{app}: shared-by-2 access share too low: {dist:?}"
            );
            assert!(
                dist[0] > 0.3,
                "{app}: majority should still be private-ish: {dist:?}"
            );
        }
    }

    #[test]
    fn reuse_controls_distinct_pages() {
        let streaming = generate(&WorkloadSpec::paper_default(AppId::Mt, Scale::Small), 4, 3);
        let cached = generate(&WorkloadSpec::paper_default(AppId::Bs, Scale::Small), 4, 3);
        let distinct = |w: &Workload| {
            let pages: std::collections::BTreeSet<Vpn> =
                w.traces.accesses(0).map(|a| a.vpn).collect();
            pages.len()
        };
        let (mt_pages, bs_pages) = (distinct(&streaming), distinct(&cached));
        assert!(
            mt_pages > bs_pages * 2,
            "MT should touch far more pages: {mt_pages} vs {bs_pages}"
        );
    }

    #[test]
    fn single_gpu_degenerates_gracefully() {
        let w = generate(&WorkloadSpec::paper_default(AppId::Mt, Scale::Test), 1, 9);
        assert_eq!(w.traces.gpus(), 1);
        assert!(w.traces.len(0) > 0);
    }

    #[test]
    fn partner_styles() {
        let mut rng = DetRng::seed(1);
        assert_eq!(pick_partner(PartnerStyle::Pairwise, 0, 4, &mut rng), 1);
        assert_eq!(pick_partner(PartnerStyle::Pairwise, 3, 4, &mut rng), 2);
        assert_eq!(pick_partner(PartnerStyle::Neighbor, 3, 4, &mut rng), 0);
        for _ in 0..50 {
            let p = pick_partner(PartnerStyle::AnyOther, 2, 4, &mut rng);
            assert_ne!(p, 2);
            assert!(p < 4);
        }
    }
}
