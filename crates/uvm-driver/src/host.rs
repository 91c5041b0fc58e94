//! The driver's centralized page table and physical-frame management.

use mem_model::interconnect::Node;
use vm_model::addr::{PageSize, Vpn};
use vm_model::memmap::{FrameAllocator, MemoryMap};
use vm_model::page_table::PageTable;
use vm_model::pte::Pte;

/// Errors from host-memory operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostMemError {
    /// The target device has no free frames.
    OutOfFrames(Node),
    /// The page was never populated.
    UnknownPage(Vpn),
}

impl std::fmt::Display for HostMemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostMemError::OutOfFrames(n) => write!(f, "device {n} is out of physical frames"),
            HostMemError::UnknownPage(v) => write!(f, "page {v} was never populated"),
        }
    }
}

impl std::error::Error for HostMemError {}

/// The centralized, always-up-to-date page table held by the UVM driver,
/// plus the physical-frame allocators for every device.
///
/// Page *location* is encoded in the PTE's frame bits via the global
/// [`MemoryMap`] windows, exactly as remote mapping works on hardware.
///
/// # Example
///
/// ```
/// use uvm_driver::host::HostMemory;
/// use vm_model::{PageSize, Vpn};
/// use vm_model::memmap::MemoryMap;
/// use mem_model::interconnect::Node;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut host = HostMemory::new(MemoryMap::new(2, 1024), PageSize::Size4K);
/// host.populate(Vpn(7))?;
/// assert_eq!(host.owner_of(Vpn(7)), Some(Node::Host));
/// host.move_page(Vpn(7), Node::Gpu(1))?;
/// assert_eq!(host.owner_of(Vpn(7)), Some(Node::Gpu(1)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct HostMemory {
    table: PageTable,
    allocators: Vec<FrameAllocator>,
    memmap: MemoryMap,
}

impl HostMemory {
    /// Creates host memory management over `memmap`.
    pub fn new(memmap: MemoryMap, page_size: PageSize) -> Self {
        let mut allocators: Vec<FrameAllocator> = (0..memmap.n_gpus())
            .map(|g| FrameAllocator::new(Node::Gpu(g), &memmap))
            .collect();
        allocators.push(FrameAllocator::new(Node::Host, &memmap));
        HostMemory {
            table: PageTable::new(page_size),
            allocators,
            memmap,
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "there is one allocator per GPU plus the host's, and a `Node` names one of them"
    )]
    fn allocator(&mut self, node: Node) -> &mut FrameAllocator {
        let idx = match node {
            Node::Gpu(g) => g,
            Node::Host => self.memmap.n_gpus(),
        };
        &mut self.allocators[idx]
    }

    /// The memory map in force.
    pub fn memmap(&self) -> MemoryMap {
        self.memmap
    }

    /// Establishes a page in host (CPU) memory — the initial residency of
    /// every UVM allocation.
    ///
    /// # Errors
    /// [`HostMemError::OutOfFrames`] when host memory is exhausted.
    pub fn populate(&mut self, vpn: Vpn) -> Result<Pte, HostMemError> {
        if let Some(pte) = self.table.lookup(vpn) {
            return Ok(pte);
        }
        let frame = self
            .allocator(Node::Host)
            .alloc()
            .ok_or(HostMemError::OutOfFrames(Node::Host))?;
        let ppn = self.memmap.ppn(Node::Host, frame);
        let pte = Pte::new_mapped(ppn, true);
        self.table.insert(vpn, pte);
        Ok(pte)
    }

    /// Current physical location of a page.
    pub fn owner_of(&self, vpn: Vpn) -> Option<Node> {
        self.table
            .lookup(vpn)
            .map(|pte| self.memmap.owner(pte.ppn()))
    }

    /// Reads the host PTE.
    pub fn pte(&self, vpn: Vpn) -> Option<Pte> {
        self.table.lookup(vpn)
    }

    /// Mutable host PTE access (the in-PTE directory writes access bits
    /// here).
    pub fn pte_mut(&mut self, vpn: Vpn) -> Option<&mut Pte> {
        self.table.lookup_mut(vpn)
    }

    /// Moves a page to `to`: allocates a destination frame, frees the old
    /// one and rewrites the host PTE's frame bits (directory/flag bits are
    /// preserved). Returns `(old_ppn, new_ppn)`.
    ///
    /// # Errors
    /// [`HostMemError::UnknownPage`] for unpopulated pages,
    /// [`HostMemError::OutOfFrames`] when `to` is full.
    pub fn move_page(&mut self, vpn: Vpn, to: Node) -> Result<(u64, u64), HostMemError> {
        let pte = self
            .table
            .lookup(vpn)
            .ok_or(HostMemError::UnknownPage(vpn))?;
        let old_ppn = pte.ppn();
        let from = self.memmap.owner(old_ppn);
        if from == to {
            return Ok((old_ppn, old_ppn));
        }
        let frame = self
            .allocator(to)
            .alloc()
            .ok_or(HostMemError::OutOfFrames(to))?;
        let new_ppn = self.memmap.ppn(to, frame);
        let old_frame = self.memmap.local_frame(old_ppn);
        self.allocator(from).free(old_frame);
        #[expect(
            clippy::expect_used,
            reason = "the same lookup succeeded a few lines up; the table is not touched in between"
        )]
        let entry = self.table.lookup_mut(vpn).expect("checked above");
        entry.set_ppn(new_ppn);
        entry.validate();
        Ok((old_ppn, new_ppn))
    }

    /// Allocates a frame on `node` without moving anything (used for
    /// replication copies).
    ///
    /// # Errors
    /// [`HostMemError::OutOfFrames`] when the device is full.
    pub fn alloc_frame(&mut self, node: Node) -> Result<u64, HostMemError> {
        let frame = self
            .allocator(node)
            .alloc()
            .ok_or(HostMemError::OutOfFrames(node))?;
        Ok(self.memmap.ppn(node, frame))
    }

    /// Frees a previously allocated frame by global PPN.
    pub fn free_frame(&mut self, ppn: u64) {
        let node = self.memmap.owner(ppn);
        let frame = self.memmap.local_frame(ppn);
        self.allocator(node).free(frame);
    }

    /// Number of pages the driver tracks.
    pub fn pages(&self) -> usize {
        self.table.len()
    }

    /// Read-only view of the centralized table.
    pub fn table(&self) -> &PageTable {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> HostMemory {
        HostMemory::new(MemoryMap::new(2, 16), PageSize::Size4K)
    }

    #[test]
    fn populate_is_idempotent() {
        let mut h = host();
        let a = h.populate(Vpn(1)).unwrap();
        let b = h.populate(Vpn(1)).unwrap();
        assert_eq!(a, b);
        assert_eq!(h.pages(), 1);
        assert_eq!(h.owner_of(Vpn(1)), Some(Node::Host));
    }

    #[test]
    fn move_page_updates_owner_and_frees_source() {
        let mut h = host();
        h.populate(Vpn(1)).unwrap();
        let (old, new) = h.move_page(Vpn(1), Node::Gpu(0)).unwrap();
        assert_ne!(old, new);
        assert_eq!(h.owner_of(Vpn(1)), Some(Node::Gpu(0)));
        assert_eq!(h.memmap().owner(new), Node::Gpu(0));
        // Move again: GPU0 frame must be recyclable.
        h.move_page(Vpn(1), Node::Gpu(1)).unwrap();
        for i in 0..16 {
            h.populate(Vpn(100 + i)).unwrap();
            h.move_page(Vpn(100 + i), Node::Gpu(0)).unwrap();
        }
        // 16 pages fit on GPU0 only if the earlier frame was freed.
        assert_eq!(h.owner_of(Vpn(115)), Some(Node::Gpu(0)));
    }

    #[test]
    fn move_page_to_same_owner_is_noop() {
        let mut h = host();
        h.populate(Vpn(1)).unwrap();
        h.move_page(Vpn(1), Node::Gpu(0)).unwrap();
        let (old, new) = h.move_page(Vpn(1), Node::Gpu(0)).unwrap();
        assert_eq!(old, new);
    }

    #[test]
    fn move_preserves_directory_bits() {
        let mut h = host();
        h.populate(Vpn(3)).unwrap();
        h.pte_mut(Vpn(3)).unwrap().set_unused_bit(52, true);
        h.move_page(Vpn(3), Node::Gpu(1)).unwrap();
        assert!(h.pte(Vpn(3)).unwrap().unused_bit(52));
    }

    #[test]
    fn out_of_frames_is_an_error() {
        let mut h = HostMemory::new(MemoryMap::new(1, 2), PageSize::Size4K);
        h.populate(Vpn(1)).unwrap();
        h.populate(Vpn(2)).unwrap();
        assert_eq!(
            h.populate(Vpn(3)),
            Err(HostMemError::OutOfFrames(Node::Host))
        );
        h.move_page(Vpn(1), Node::Gpu(0)).unwrap();
        h.move_page(Vpn(2), Node::Gpu(0)).unwrap();
        // GPU 0 window (2 frames) now full; a third page cannot move there.
        h.populate(Vpn(3)).unwrap();
        assert_eq!(
            h.move_page(Vpn(3), Node::Gpu(0)),
            Err(HostMemError::OutOfFrames(Node::Gpu(0)))
        );
    }

    #[test]
    fn unknown_page_errors() {
        let mut h = host();
        assert_eq!(
            h.move_page(Vpn(9), Node::Gpu(0)),
            Err(HostMemError::UnknownPage(Vpn(9)))
        );
        assert_eq!(h.owner_of(Vpn(9)), None);
    }

    #[test]
    fn alloc_and_free_frame_roundtrip() {
        let mut h = HostMemory::new(MemoryMap::new(1, 1), PageSize::Size4K);
        let ppn = h.alloc_frame(Node::Gpu(0)).unwrap();
        assert!(h.alloc_frame(Node::Gpu(0)).is_err());
        h.free_frame(ppn);
        assert!(h.alloc_frame(Node::Gpu(0)).is_ok());
    }
}
