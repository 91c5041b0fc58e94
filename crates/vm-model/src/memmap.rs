//! System physical-memory layout.
//!
//! Physical page numbers are partitioned into per-device windows so that a
//! PTE's frame bits alone identify *where* a page lives — exactly how remote
//! mapping works on real multi-GPU systems: the local page table stores a
//! physical address in a remote GPU's memory aperture.

use mem_model::interconnect::{GpuId, Node};

/// Partitions the physical page-number space into one window per GPU plus a
/// final window for host memory.
///
/// # Example
///
/// ```
/// use vm_model::memmap::MemoryMap;
/// use mem_model::interconnect::Node;
///
/// let mm = MemoryMap::new(4, 1 << 20); // 4 GPUs x 4 GiB of 4 KiB frames
/// let ppn = mm.ppn(Node::Gpu(2), 5);
/// assert_eq!(mm.owner(ppn), Node::Gpu(2));
/// assert_eq!(mm.local_frame(ppn), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryMap {
    n_gpus: usize,
    frames_per_device: u64,
}

impl MemoryMap {
    /// Creates a map for `n_gpus` GPUs with `frames_per_device` physical
    /// frames in each device window (the host gets the window after the last
    /// GPU).
    ///
    /// # Panics
    /// Panics if either parameter is zero or the windows overflow the 40-bit
    /// frame field.
    pub fn new(n_gpus: usize, frames_per_device: u64) -> Self {
        assert!(n_gpus > 0 && frames_per_device > 0);
        let windows = n_gpus as u64 + 1;
        assert!(
            windows * frames_per_device <= (1 << 40),
            "physical space exceeds 40-bit frame field"
        );
        MemoryMap {
            n_gpus,
            frames_per_device,
        }
    }

    /// Number of GPUs.
    pub fn n_gpus(&self) -> usize {
        self.n_gpus
    }

    /// Frames per device window.
    pub fn frames_per_device(&self) -> u64 {
        self.frames_per_device
    }

    fn window_of(&self, node: Node) -> u64 {
        match node {
            Node::Gpu(g) => {
                assert!(g < self.n_gpus, "gpu id out of range");
                g as u64
            }
            Node::Host => self.n_gpus as u64,
        }
    }

    /// The global PPN of local frame `frame` on `node`.
    ///
    /// # Panics
    /// Panics if `frame` exceeds the device window or the GPU id is out of
    /// range.
    pub fn ppn(&self, node: Node, frame: u64) -> u64 {
        assert!(frame < self.frames_per_device, "frame beyond device window");
        self.window_of(node) * self.frames_per_device + frame
    }

    /// Which device owns a global PPN.
    ///
    /// # Panics
    /// Panics if the PPN is beyond all windows.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "u64 → usize cannot truncate: sim_engine refuses to build for non-64-bit hosts"
    )]
    #[expect(
        clippy::panic,
        reason = "documented `# Panics` contract: PPNs come from this map's own windows, so an out-of-range PPN is memory corruption"
    )]
    pub fn owner(&self, ppn: u64) -> Node {
        let w = ppn / self.frames_per_device;
        if w < self.n_gpus as u64 {
            Node::Gpu(w as GpuId)
        } else if w == self.n_gpus as u64 {
            Node::Host
        } else {
            panic!("ppn {ppn:#x} beyond physical space");
        }
    }

    /// The frame index within its owner's window.
    pub fn local_frame(&self, ppn: u64) -> u64 {
        ppn % self.frames_per_device
    }
}

/// A bump allocator of physical frames for one device window.
///
/// Frames freed by migration are recycled LIFO.
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    node: Node,
    next: u64,
    limit: u64,
    free_list: Vec<u64>,
}

impl FrameAllocator {
    /// Creates an allocator over the whole window of `node` in `map`.
    pub fn new(node: Node, map: &MemoryMap) -> Self {
        FrameAllocator {
            node,
            next: 0,
            limit: map.frames_per_device(),
            free_list: Vec::new(),
        }
    }

    /// Allocates a local frame, or `None` when the device is full.
    pub fn alloc(&mut self) -> Option<u64> {
        if let Some(f) = self.free_list.pop() {
            return Some(f);
        }
        if self.next < self.limit {
            let f = self.next;
            self.next += 1;
            Some(f)
        } else {
            None
        }
    }

    /// Returns a frame to the pool.
    ///
    /// # Panics
    /// Panics (debug) if the frame was never allocated.
    pub fn free(&mut self, frame: u64) {
        debug_assert!(frame < self.next, "freeing unallocated frame");
        self.free_list.push(frame);
    }

    /// Device that owns this allocator.
    pub fn node(&self) -> Node {
        self.node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_disjoint_and_total() {
        let mm = MemoryMap::new(3, 100);
        for g in 0..3 {
            let ppn = mm.ppn(Node::Gpu(g), 99);
            assert_eq!(mm.owner(ppn), Node::Gpu(g));
            assert_eq!(mm.local_frame(ppn), 99);
        }
        let h = mm.ppn(Node::Host, 0);
        assert_eq!(mm.owner(h), Node::Host);
        assert_eq!(h, 300);
    }

    #[test]
    #[should_panic(expected = "beyond device window")]
    fn overflow_frame_panics() {
        let mm = MemoryMap::new(1, 10);
        mm.ppn(Node::Gpu(0), 10);
    }

    #[test]
    #[should_panic(expected = "beyond physical space")]
    fn alien_ppn_panics() {
        let mm = MemoryMap::new(1, 10);
        mm.owner(21);
    }

    #[test]
    fn allocator_bumps_then_recycles() {
        let mm = MemoryMap::new(1, 3);
        let mut fa = FrameAllocator::new(Node::Gpu(0), &mm);
        assert_eq!(fa.alloc(), Some(0));
        assert_eq!(fa.alloc(), Some(1));
        assert_eq!(fa.alloc(), Some(2));
        assert_eq!(fa.alloc(), None, "window exhausted");
        fa.free(1);
        assert_eq!(fa.alloc(), Some(1), "recycled frame");
        assert_eq!(fa.alloc(), None);
    }
}
