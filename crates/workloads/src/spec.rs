//! Application specifications (Table 3) and generator parameters.

/// The nine evaluated applications (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AppId {
    /// Matrix Transpose (AMDAPPSDK) — scatter-gather, MPKI 185.52.
    Mt,
    /// Matrix Multiplication (AMDAPPSDK) — scatter-gather, MPKI 11.21.
    Mm,
    /// PageRank (Hetero-Mark) — random, MPKI 78.21.
    Pr,
    /// Stencil 2D (SHOC) — adjacent, MPKI 36.24.
    St,
    /// Simple Convolution (AMDAPPSDK) — adjacent, MPKI 15.76.
    Sc,
    /// KMeans (Hetero-Mark) — adjacent, MPKI 50.67.
    Km,
    /// Image to Column (DNN-Mark) — scatter-gather, MPKI 18.31.
    Im,
    /// Convolution 2D (DNN-Mark) — adjacent, MPKI 21.42.
    C2d,
    /// Bitonic Sort (AMDAPPSDK) — random, MPKI 3.42.
    Bs,
}

impl AppId {
    /// All nine applications in the paper's figure order.
    pub const ALL: [AppId; 9] = [
        AppId::Mt,
        AppId::Mm,
        AppId::Pr,
        AppId::St,
        AppId::Sc,
        AppId::Km,
        AppId::Im,
        AppId::C2d,
        AppId::Bs,
    ];

    /// The paper's abbreviation.
    pub fn name(self) -> &'static str {
        match self {
            AppId::Mt => "MT",
            AppId::Mm => "MM",
            AppId::Pr => "PR",
            AppId::St => "ST",
            AppId::Sc => "SC",
            AppId::Km => "KM",
            AppId::Im => "IM",
            AppId::C2d => "C2D",
            AppId::Bs => "BS",
        }
    }

    /// The inverse of [`AppId::name`]: resolves a paper abbreviation
    /// (case-sensitive, e.g. `"MT"`).
    pub fn from_name(name: &str) -> Option<AppId> {
        AppId::ALL.into_iter().find(|app| app.name() == name)
    }

    /// Source benchmark suite.
    pub fn suite(self) -> &'static str {
        match self {
            AppId::Km | AppId::Pr => "Hetero-Mark",
            AppId::Bs | AppId::Mm | AppId::Mt | AppId::Sc => "AMDAPPSDK",
            AppId::St => "SHOC",
            AppId::C2d | AppId::Im => "DNN-Mark",
        }
    }

    /// The dominant access pattern reported in Table 3.
    pub fn pattern(self) -> AccessPattern {
        match self {
            AppId::Km | AppId::Sc | AppId::St | AppId::C2d => AccessPattern::Adjacent,
            AppId::Pr | AppId::Bs => AccessPattern::Random,
            AppId::Mm | AppId::Mt | AppId::Im => AccessPattern::ScatterGather,
        }
    }

    /// The paper's measured L2 TLB MPKI (Table 3), used for calibration
    /// comparison, not as a simulation input.
    pub fn paper_mpki(self) -> f64 {
        match self {
            AppId::Mt => 185.52,
            AppId::Mm => 11.21,
            AppId::Pr => 78.21,
            AppId::St => 36.24,
            AppId::Sc => 15.76,
            AppId::Km => 50.67,
            AppId::Im => 18.31,
            AppId::C2d => 21.42,
            AppId::Bs => 3.42,
        }
    }
}

impl std::fmt::Display for AppId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Data access/sharing pattern classes (Table 3 / §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPattern {
    /// Input batched and shared with neighbouring GPUs (KM, SC, ST, C2D).
    Adjacent,
    /// Any GPU reads/writes anywhere unpredictably (PR, BS).
    Random,
    /// Each GPU owns a fraction of input/output matrices and reads/writes
    /// across GPUs (MM, MT, IM).
    ScatterGather,
}

/// Trace size class: `Test` keeps unit/integration tests fast; `Small` is
/// for quick experiments; `Full` for the benchmark harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// ~1–2 K accesses per GPU.
    Test,
    /// ~20 K accesses per GPU.
    Small,
    /// ~80 K accesses per GPU.
    Full,
}

impl Scale {
    fn accesses_per_gpu(self) -> u64 {
        match self {
            Scale::Test => 1_500,
            Scale::Small => 20_000,
            Scale::Full => 80_000,
        }
    }

    /// The access-counter migration threshold used at this scale.
    ///
    /// The NVIDIA driver default is 256, calibrated against real workloads
    /// issuing billions of accesses. Our traces are 10^3–10^5 accesses per
    /// GPU, so the threshold is scaled down proportionally to preserve the
    /// paper's migrations-per-access ratio (the Figure 20 sensitivity study
    /// doubles whatever the scaled value is, mirroring 256 → 512).
    /// Documented as a substitution in DESIGN.md §6.
    pub fn counter_threshold(self) -> u32 {
        match self {
            Scale::Test => 4,
            Scale::Small => 12,
            Scale::Full => 24,
        }
    }

    fn page_scale(self) -> f64 {
        match self {
            Scale::Test => 0.1,
            Scale::Small => 0.5,
            Scale::Full => 1.0,
        }
    }
}

/// Full generator parameterisation for one application run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// The application being modelled.
    pub app: AppId,
    /// Total data footprint in pages (shared virtual address space).
    pub pages: u64,
    /// Accesses issued by each GPU.
    pub accesses_per_gpu: u64,
    /// Fraction of accesses that are writes.
    pub write_fraction: f64,
    /// Compute cycles a warp spends between two memory accesses. One
    /// instruction per cycle, so this also sets instructions-per-access for
    /// MPKI accounting.
    pub compute_gap: u64,
    /// Probability that an access reuses the warp's current page instead of
    /// moving on (temporal locality knob → TLB hit rate → MPKI class).
    pub reuse: f64,
    /// Fraction of accesses directed at a *globally shared* hot region
    /// (e.g. KMeans centroids, PageRank hubs, MM's broadcast operand).
    pub hot_fraction: f64,
    /// Size of the hot region in pages.
    pub hot_pages: u64,
    /// For adjacent apps: fraction of accesses to the neighbouring
    /// partition's halo rows. For scatter-gather: fraction of accesses
    /// striding across *other* GPUs' partitions. Ignored for random.
    pub cross_fraction: f64,
    /// Zipf skew for random apps (0 = uniform).
    pub zipf_theta: f64,
}

impl WorkloadSpec {
    /// The calibrated per-application defaults. Parameters are chosen so the
    /// *baseline* simulation reproduces the paper's per-app MPKI class
    /// (Table 3), sharing-degree distribution (Figure 4) and walker request
    /// mix (Figure 5); see DESIGN.md §6.
    pub fn paper_default(app: AppId, scale: Scale) -> WorkloadSpec {
        let accesses_per_gpu = scale.accesses_per_gpu();
        let ps = scale.page_scale();
        #[expect(
            clippy::cast_possible_truncation,
            reason = "deliberate truncation of a scaled page count; footprints sit far below 2^53"
        )]
        let pages = |full: u64| ((full as f64 * ps) as u64).max(64);
        match app {
            // MT: streaming transpose, huge footprint, no reuse → very high
            // MPKI; reads local rows, writes transposed (pairwise sharing).
            AppId::Mt => WorkloadSpec {
                app,
                pages: pages(8_000),
                accesses_per_gpu,
                write_fraction: 0.5,
                compute_gap: 2,
                reuse: 0.05,
                hot_fraction: 0.0,
                hot_pages: 0,
                cross_fraction: 0.45,
                zipf_theta: 0.0,
            },
            // MM: blocked matmul, strong reuse → low MPKI; the B operand is
            // broadcast-read by every GPU (shared by 4).
            AppId::Mm => WorkloadSpec {
                app,
                pages: pages(1_600),
                accesses_per_gpu,
                write_fraction: 0.15,
                compute_gap: 8,
                reuse: 0.85,
                hot_fraction: 0.55,
                hot_pages: pages(400),
                cross_fraction: 0.2,
                zipf_theta: 0.0,
            },
            // PR: random graph walks over the whole space from every GPU,
            // zipf-skewed hubs, rank writes → shared by all, high MPKI.
            AppId::Pr => WorkloadSpec {
                app,
                pages: pages(3_000),
                accesses_per_gpu,
                write_fraction: 0.35,
                compute_gap: 3,
                reuse: 0.25,
                hot_fraction: 0.0,
                hot_pages: 0,
                cross_fraction: 0.0,
                zipf_theta: 0.85,
            },
            // ST: 2-D stencil, halo rows shared with neighbours.
            AppId::St => WorkloadSpec {
                app,
                pages: pages(2_400),
                accesses_per_gpu,
                write_fraction: 0.3,
                compute_gap: 4,
                reuse: 0.45,
                hot_fraction: 0.0,
                hot_pages: 0,
                cross_fraction: 0.3,
                zipf_theta: 0.0,
            },
            // SC: convolution with small kernel: good reuse, narrow halos.
            AppId::Sc => WorkloadSpec {
                app,
                pages: pages(1_600),
                accesses_per_gpu,
                write_fraction: 0.25,
                compute_gap: 8,
                reuse: 0.7,
                hot_fraction: 0.0,
                hot_pages: 0,
                cross_fraction: 0.22,
                zipf_theta: 0.0,
            },
            // KM: points partitioned per GPU (adjacent) + centroid pages
            // read/written by every GPU each iteration (shared by all).
            AppId::Km => WorkloadSpec {
                app,
                pages: pages(2_400),
                accesses_per_gpu,
                write_fraction: 0.3,
                compute_gap: 4,
                reuse: 0.35,
                hot_fraction: 0.45,
                hot_pages: pages(200),
                cross_fraction: 0.1,
                zipf_theta: 0.0,
            },
            // IM: im2col: strided gathers across two GPUs' partitions,
            // memory-intensive (tiny compute gap → latency cannot hide).
            AppId::Im => WorkloadSpec {
                app,
                pages: pages(1_800),
                accesses_per_gpu,
                write_fraction: 0.45,
                compute_gap: 1,
                reuse: 0.55,
                hot_fraction: 0.0,
                hot_pages: 0,
                cross_fraction: 0.4,
                zipf_theta: 0.0,
            },
            // C2D: conv2d forward: adjacent with neighbour halos, writes to
            // shared output borders.
            AppId::C2d => WorkloadSpec {
                app,
                pages: pages(2_000),
                accesses_per_gpu,
                write_fraction: 0.4,
                compute_gap: 6,
                reuse: 0.55,
                hot_fraction: 0.0,
                hot_pages: 0,
                cross_fraction: 0.35,
                zipf_theta: 0.0,
            },
            // BS: bitonic sort: phase-paired exchanges, tiny working set per
            // phase, big compute gaps → very low MPKI, sharing by 2.
            AppId::Bs => WorkloadSpec {
                app,
                pages: pages(800),
                accesses_per_gpu,
                write_fraction: 0.5,
                compute_gap: 16,
                reuse: 0.88,
                hot_fraction: 0.0,
                hot_pages: 0,
                cross_fraction: 0.5,
                zipf_theta: 0.0,
            },
        }
    }

    /// Doubles the footprint (used for the 2 MB-page study, §7.3, which
    /// enlarges inputs to stress the VM subsystem).
    pub fn enlarged(mut self, factor: u64) -> WorkloadSpec {
        self.pages *= factor;
        self.accesses_per_gpu *= factor.min(2);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_apps_have_specs() {
        for app in AppId::ALL {
            let spec = WorkloadSpec::paper_default(app, Scale::Test);
            assert!(spec.pages >= 64, "{app}: footprint too small");
            assert!(spec.accesses_per_gpu > 0);
            assert!((0.0..=1.0).contains(&spec.write_fraction));
            assert!((0.0..=1.0).contains(&spec.reuse));
            assert!((0.0..=1.0).contains(&spec.hot_fraction));
            assert!(spec.hot_pages < spec.pages);
        }
    }

    #[test]
    fn from_name_inverts_name() {
        for app in AppId::ALL {
            assert_eq!(AppId::from_name(app.name()), Some(app));
        }
        assert_eq!(AppId::from_name("mt"), None, "names are case-sensitive");
        assert_eq!(AppId::from_name("NOPE"), None);
    }

    #[test]
    fn table3_metadata() {
        assert_eq!(AppId::Pr.suite(), "Hetero-Mark");
        assert_eq!(AppId::St.suite(), "SHOC");
        assert_eq!(AppId::Mt.pattern(), AccessPattern::ScatterGather);
        assert_eq!(AppId::Km.pattern(), AccessPattern::Adjacent);
        assert_eq!(AppId::Bs.pattern(), AccessPattern::Random);
        assert!(AppId::Mt.paper_mpki() > AppId::Bs.paper_mpki());
        assert_eq!(AppId::ALL.len(), 9);
    }

    #[test]
    fn scales_order_sizes() {
        let t = WorkloadSpec::paper_default(AppId::Pr, Scale::Test);
        let s = WorkloadSpec::paper_default(AppId::Pr, Scale::Small);
        let f = WorkloadSpec::paper_default(AppId::Pr, Scale::Full);
        assert!(t.accesses_per_gpu < s.accesses_per_gpu);
        assert!(s.accesses_per_gpu < f.accesses_per_gpu);
        assert!(t.pages < f.pages);
    }

    #[test]
    fn enlarged_grows_footprint() {
        let spec = WorkloadSpec::paper_default(AppId::Sc, Scale::Test);
        let big = spec.clone().enlarged(4);
        assert_eq!(big.pages, spec.pages * 4);
    }

    #[test]
    fn mpki_knobs_are_ordered_sensibly() {
        // Apps with higher paper MPKI should have lower reuse (the dominant
        // MPKI knob) — spot-check the extremes.
        let mt = WorkloadSpec::paper_default(AppId::Mt, Scale::Full);
        let bs = WorkloadSpec::paper_default(AppId::Bs, Scale::Full);
        assert!(mt.reuse < bs.reuse);
        assert!(mt.pages > bs.pages);
    }
}
