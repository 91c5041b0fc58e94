//! Far faults and the driver's fault batcher.
//!
//! GPUs report far faults through their fault buffers (modelled as one
//! PCIe message per fault); the UVM driver "fetches the fault information,
//! groups faults into batches, and caches it on the host (the batch size is
//! 256)" (§3.2). The batcher here is pure
//! mechanism: the system layer decides *when* to flush a partial batch
//! (a configurable batching window models the driver's periodic service).

use mem_model::interconnect::GpuId;
use sim_engine::Cycle;
use vm_model::addr::Vpn;

/// One far fault reported by a GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FarFault {
    /// Reporting GPU.
    pub gpu: GpuId,
    /// Faulting page.
    pub vpn: Vpn,
    /// Whether the faulting access was a write.
    pub is_write: bool,
    /// When the fault left the GPU.
    pub raised_at: Cycle,
    /// Opaque request token used by the system layer to resume the
    /// originating translation request.
    pub token: u64,
}

/// Groups incoming faults into batches of at most `batch_size`.
///
/// # Example
///
/// ```
/// use uvm_driver::fault::{FarFault, FaultBatcher};
/// use sim_engine::Cycle;
/// use vm_model::Vpn;
///
/// let mut b = FaultBatcher::new(2);
/// let f = |t| FarFault { gpu: 0, vpn: Vpn(t), is_write: false, raised_at: Cycle(0), token: t };
/// assert!(b.push(f(1)).is_none());
/// let batch = b.push(f(2)).unwrap(); // batch full
/// assert_eq!(batch.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct FaultBatcher {
    pending: Vec<FarFault>,
    batch_size: usize,
    batches_emitted: u64,
    faults_total: u64,
}

impl FaultBatcher {
    /// Creates a batcher with the given maximum batch size (256 in the
    /// NVIDIA driver).
    ///
    /// # Panics
    /// Panics if `batch_size == 0`.
    pub fn new(batch_size: usize) -> Self {
        assert!(batch_size > 0);
        FaultBatcher {
            pending: Vec::with_capacity(batch_size),
            batch_size,
            batches_emitted: 0,
            faults_total: 0,
        }
    }

    /// Adds a fault; returns a full batch when `batch_size` is reached.
    pub fn push(&mut self, fault: FarFault) -> Option<Vec<FarFault>> {
        self.faults_total += 1;
        self.pending.push(fault);
        if self.pending.len() >= self.batch_size {
            self.batches_emitted += 1;
            Some(std::mem::take(&mut self.pending))
        } else {
            None
        }
    }

    /// Flushes whatever is pending (the batching-window timeout path).
    /// Returns `None` when nothing is pending.
    pub fn flush(&mut self) -> Option<Vec<FarFault>> {
        if self.pending.is_empty() {
            None
        } else {
            self.batches_emitted += 1;
            Some(std::mem::take(&mut self.pending))
        }
    }

    /// Hands back a batch returned by [`FaultBatcher::push`] or
    /// [`FaultBatcher::flush`] so the next batch reuses its buffer. A batch
    /// handed back while faults are pending is dropped.
    pub fn recycle(&mut self, mut batch: Vec<FarFault>) {
        if self.pending.is_empty() {
            batch.clear();
            self.pending = batch;
        }
    }

    /// Pending fault count.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Maximum batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Batches emitted so far.
    pub fn batches_emitted(&self) -> u64 {
        self.batches_emitted
    }

    /// Faults ever received.
    pub fn faults_total(&self) -> u64 {
        self.faults_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fault(token: u64) -> FarFault {
        FarFault {
            gpu: (token % 4) as GpuId,
            vpn: Vpn(token * 7),
            is_write: token.is_multiple_of(2),
            raised_at: Cycle(token),
            token,
        }
    }

    #[test]
    fn batch_emitted_exactly_at_capacity() {
        let mut b = FaultBatcher::new(3);
        assert!(b.push(fault(1)).is_none());
        assert!(b.push(fault(2)).is_none());
        let batch = b.push(fault(3)).unwrap();
        assert_eq!(batch.len(), 3);
        assert!(b.is_empty());
        assert_eq!(b.batches_emitted(), 1);
        assert_eq!(b.faults_total(), 3);
    }

    #[test]
    fn batch_preserves_arrival_order() {
        let mut b = FaultBatcher::new(3);
        b.push(fault(10));
        b.push(fault(20));
        let batch = b.push(fault(30)).unwrap();
        let tokens: Vec<u64> = batch.iter().map(|f| f.token).collect();
        assert_eq!(tokens, vec![10, 20, 30]);
    }

    #[test]
    fn flush_emits_partial_batch() {
        let mut b = FaultBatcher::new(100);
        assert!(b.flush().is_none());
        b.push(fault(1));
        b.push(fault(2));
        let batch = b.flush().unwrap();
        assert_eq!(batch.len(), 2);
        assert!(b.flush().is_none());
    }

    #[test]
    fn a_recycled_batch_comes_back_empty() {
        let mut b = FaultBatcher::new(2);
        b.push(fault(1));
        let batch = b.push(fault(2)).unwrap();
        let buffer = batch.as_ptr();
        b.recycle(batch);
        assert!(b.is_empty(), "no fault of the old batch is pending");
        b.push(fault(3));
        let batch = b.flush().unwrap();
        assert_eq!(batch.iter().map(|f| f.token).collect::<Vec<_>>(), vec![3]);
        assert_eq!(batch.as_ptr(), buffer, "the buffer was reused");
        // Handed back while a fault is pending: dropped, nothing lost.
        b.push(fault(4));
        b.recycle(batch);
        assert_eq!(b.flush().unwrap().len(), 1);
    }

    #[test]
    fn continues_after_emission() {
        let mut b = FaultBatcher::new(2);
        b.push(fault(1));
        b.push(fault(2));
        assert!(b.push(fault(3)).is_none());
        assert_eq!(b.len(), 1);
    }
}
