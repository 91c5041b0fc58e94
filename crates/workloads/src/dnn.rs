//! Layer-parallel DNN workloads (§7.6): VGG16 and ResNet18.
//!
//! The paper parallelises DNN layers across GPUs and observes that "the
//! computation of each layer requires the use of the weights stored on each
//! GPU, such substantial weight sharing causes page migrations and PTE
//! invalidations". The generator reproduces that structure: layers are
//! assigned round-robin to GPUs; per batch, each GPU streams its layer's
//! input activations from the producing GPU, re-reads its weights with high
//! locality, touches the globally shared embedding/classifier region, and
//! writes its output activations.

use sim_engine::rng::DetRng;
use vm_model::addr::Vpn;

use crate::gen::{spread, WORKLOAD_BASE_VPN};
use crate::trace::{Access, Span, Workload};

/// Supported DNN models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DnnModel {
    /// VGG16 (13 conv + 3 FC layers).
    Vgg16,
    /// ResNet18 (a stem + 8 two-conv basic blocks + FC).
    Resnet18,
}

impl DnnModel {
    /// Both models, in the order Figure 24 lists them.
    pub const ALL: [DnnModel; 2] = [DnnModel::Vgg16, DnnModel::Resnet18];

    /// Relative per-layer weight sizes (pages at scale 1.0), front-to-back.
    fn weight_pages(self) -> &'static [u64] {
        match self {
            // VGG16: conv blocks grow 64→512 channels, then giant FC layers.
            DnnModel::Vgg16 => &[4, 4, 8, 8, 16, 16, 16, 32, 32, 32, 32, 32, 32, 256, 48, 12],
            // ResNet18: stem + 8 basic blocks (channel-doubling) + FC.
            DnnModel::Resnet18 => &[
                6, 8, 8, 8, 8, 16, 16, 16, 16, 32, 32, 32, 32, 64, 64, 64, 64, 10,
            ],
        }
    }

    /// Relative per-layer activation sizes (pages at scale 1.0): early
    /// layers have large activations, late layers small.
    fn activation_pages(self) -> Vec<u64> {
        let n = self.weight_pages().len();
        (0..n)
            .map(|i| {
                let shrink = 1u64 << (i / 3).min(5);
                (96 / shrink).max(2)
            })
            .collect()
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            DnnModel::Vgg16 => "VGG16",
            DnnModel::Resnet18 => "ResNet18",
        }
    }
}

impl std::fmt::Display for DnnModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// DNN workload parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DnnSpec {
    /// Model.
    pub model: DnnModel,
    /// Mini-batches processed (each batch is one forward sweep over all
    /// layers).
    pub batches: u64,
    /// Accesses a layer issues per batch per kind (weights/activations).
    pub accesses_per_layer: u64,
    /// Footprint scale multiplier.
    pub scale: u64,
    /// Compute cycles between accesses (DNN kernels are compute-dense).
    pub compute_gap: u64,
    /// Fraction of a layer's reads that touch *other layers'* weights
    /// (optimizer state, shared embeddings): the cross-GPU weight sharing
    /// that drives migrations.
    pub weight_sharing: f64,
    /// Fraction of accesses that are writes (activation/gradient stores).
    pub write_fraction: f64,
}

impl DnnSpec {
    /// Paper-like defaults at a simulation-friendly scale.
    pub fn paper_default(model: DnnModel) -> DnnSpec {
        DnnSpec {
            model,
            batches: 6,
            accesses_per_layer: 260,
            scale: 4,
            compute_gap: 10,
            weight_sharing: 0.25,
            write_fraction: 0.3,
        }
    }

    /// A tiny configuration for tests.
    pub fn test_default(model: DnnModel) -> DnnSpec {
        DnnSpec {
            batches: 2,
            accesses_per_layer: 60,
            scale: 1,
            ..DnnSpec::paper_default(model)
        }
    }

    /// Accesses the generated trace holds across all GPUs: every layer
    /// issues `accesses_per_layer` per batch, whatever the GPU count.
    pub fn total_accesses(&self) -> u64 {
        self.batches * self.model.weight_pages().len() as u64 * self.accesses_per_layer
    }
}

/// Generates the layer-parallel DNN trace set.
///
/// # Panics
/// Panics if `n_gpus == 0`.
///
/// # Example
///
/// ```
/// use workloads::dnn::{generate_dnn, DnnModel, DnnSpec};
/// let wl = generate_dnn(&DnnSpec::test_default(DnnModel::Vgg16), 4, 7);
/// assert_eq!(wl.traces.gpus(), 4);
/// assert_eq!(wl.total_accesses(), 1920);
/// let (base, pages) = (wl.traces.base_vpn().0, wl.traces.pages());
/// let mut gpu0 = (0..wl.traces.len(0)).filter_map(|i| wl.traces.get(0, i));
/// assert!(gpu0.all(|a| a.vpn.0 - base < pages));
/// ```
#[expect(
    clippy::indexing_slicing,
    reason = "layer indices are < n_layers and `layer % n_gpus` is < n_gpus, the lengths of the vectors built here"
)]
pub fn generate_dnn(spec: &DnnSpec, n_gpus: usize, seed: u64) -> Workload {
    assert!(n_gpus > 0, "need at least one GPU");
    let weights: Vec<u64> = spec
        .model
        .weight_pages()
        .iter()
        .map(|w| w * spec.scale)
        .collect();
    let activations: Vec<u64> = spec
        .model
        .activation_pages()
        .iter()
        .map(|a| a * spec.scale)
        .collect();
    let n_layers = weights.len();

    // Layout: [weights layer0 | acts layer0 | weights layer1 | …].
    // Logical page indices are spread across radix regions like the main
    // generator (realistic PWC pressure; see `gen::spread`).
    let mut weight_base = vec![0u64; n_layers];
    let mut act_base = vec![0u64; n_layers];
    let mut logical = 0u64;
    for l in 0..n_layers {
        weight_base[l] = logical;
        logical += weights[l];
        act_base[l] = logical;
        logical += activations[l];
    }
    let span = Span::new(Vpn(WORKLOAD_BASE_VPN), spread(logical) + 1);
    let vpn_of = |idx: u64| Vpn(WORKLOAD_BASE_VPN + spread(idx));

    let mut root = DetRng::seed(seed ^ 0xD41);
    // GPU g runs layers g, g + n_gpus, … in every batch.
    let mut traces: Vec<_> = (0..n_gpus)
        .map(|g| {
            let layers = n_layers.saturating_sub(g).div_ceil(n_gpus) as u64;
            #[expect(
                clippy::cast_possible_truncation,
                reason = "u64 → usize cannot truncate: sim_engine refuses to build for non-64-bit hosts"
            )]
            let capacity = (layers * spec.batches * spec.accesses_per_layer) as usize;
            span.writer(capacity)
        })
        .collect();
    let mut rngs: Vec<DetRng> = (0..n_gpus).map(|g| root.fork(g as u64 + 1)).collect();

    for _batch in 0..spec.batches {
        for layer in 0..n_layers {
            let gpu = layer % n_gpus;
            let rng = &mut rngs[gpu];
            let trace = &mut traces[gpu];
            for _ in 0..spec.accesses_per_layer {
                let r = rng.f64();
                let (vpn, is_write) = if r < spec.weight_sharing {
                    // Shared weight traffic: a random *other* layer's
                    // weights (optimizer/eval sweeps) — cross-GPU sharing.
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "u64 → usize cannot truncate: sim_engine refuses to build for non-64-bit hosts"
                    )]
                    let other = rng.below(n_layers as u64) as usize;
                    (
                        vpn_of(weight_base[other] + rng.below(weights[other])),
                        rng.chance(0.2),
                    )
                } else if r < spec.weight_sharing + 0.25 && layer > 0 {
                    // Input activations produced by the previous layer's GPU.
                    (
                        vpn_of(act_base[layer - 1] + rng.below(activations[layer - 1])),
                        false,
                    )
                } else if r < spec.weight_sharing + 0.45 {
                    // Output activations: local writes.
                    (
                        vpn_of(act_base[layer] + rng.below(activations[layer])),
                        true,
                    )
                } else {
                    // Own weights: high-locality re-reads.
                    let idx = rng.below(weights[layer]).min(rng.below(weights[layer]));
                    (vpn_of(weight_base[layer] + idx), false)
                };
                trace.push(Access { vpn, is_write });
            }
        }
    }

    Workload {
        name: spec.model.name().to_string(),
        traces: span.finish(traces),
        compute_gap: spec.compute_gap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn models_have_plausible_shapes() {
        assert_eq!(DnnModel::Vgg16.weight_pages().len(), 16);
        assert_eq!(DnnModel::Resnet18.weight_pages().len(), 18);
        assert_eq!(
            DnnModel::Vgg16.activation_pages().len(),
            DnnModel::Vgg16.weight_pages().len()
        );
    }

    #[test]
    fn deterministic() {
        let spec = DnnSpec::test_default(DnnModel::Resnet18);
        let a = generate_dnn(&spec, 4, 1);
        let b = generate_dnn(&spec, 4, 1);
        assert_eq!(a.traces, b.traces);
    }

    #[test]
    fn footprint_bounds_respected() {
        let spec = DnnSpec::test_default(DnnModel::Vgg16);
        let w = generate_dnn(&spec, 3, 5);
        let (base, pages) = (w.traces.base_vpn().0, w.traces.pages());
        for a in (0..3).flat_map(|g| w.traces.accesses(g)) {
            assert!(a.vpn.0 >= base && a.vpn.0 < base + pages);
        }
    }

    #[test]
    fn layer_parallel_assignment_balances_work() {
        let spec = DnnSpec::test_default(DnnModel::Vgg16);
        let w = generate_dnn(&spec, 4, 5);
        // 16 layers round-robin on 4 GPUs → 4 layers each → equal access
        // counts.
        let lens: Vec<usize> = (0..4).map(|g| w.traces.len(g)).collect();
        assert!(lens.iter().all(|&l| l == lens[0]), "{lens:?}");
        assert!(lens[0] > 0);
    }

    #[test]
    fn weight_sharing_creates_cross_gpu_pages() {
        let spec = DnnSpec::paper_default(DnnModel::Vgg16);
        let w = generate_dnn(&spec, 4, 5);
        let dist = w.access_sharing_distribution();
        let shared: f64 = dist[1..].iter().sum();
        assert!(
            shared > 0.3,
            "weight sharing should make >30% of accesses shared: {dist:?}"
        );
    }

    #[test]
    fn write_traffic_present() {
        let spec = DnnSpec::test_default(DnnModel::Resnet18);
        let w = generate_dnn(&spec, 2, 3);
        let wf = crate::trace::tests::write_fraction(&w, 0);
        assert!(wf > 0.1 && wf < 0.6, "write fraction {wf}");
    }
}
