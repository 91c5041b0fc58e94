//! Discrete-event simulation kernel used by every other crate in the IDYLL
//! reproduction workspace.
//!
//! The kernel deliberately contains no domain knowledge: it provides
//!
//! * [`Cycle`] — the simulated time base (GPU core cycles at 1 GHz),
//! * [`lane`] — the kernel's event list: per-lane timing-wheel queues
//!   ([`LaneQueue`]), queue pooling, and the deterministic cross-lane merge
//!   key used by the parallel event core,
//! * [`EventQueue`] — a plain binary-heap future-event list with the same
//!   `(cycle, seq)` delivery contract; it is the ordering oracle that
//!   [`LaneQueue`] and the cross-lane merge rule are tested against,
//! * [`DetRng`] — a seedable, reproducible random number generator,
//! * [`stats`] — counters, accumulators and histograms used for reporting,
//! * [`queue::BoundedQueue`] — a bounded FIFO with occupancy statistics,
//! * [`resource::ThreadPool`] — an abstract pool of latency-occupied threads
//!   (used to model page-table-walker threads and similar units),
//! * [`trace`] — span/event tracing with a Chrome-trace (Perfetto) exporter,
//! * [`prof`] — a count-only self-profiler over event-loop phases (one
//!   branch when disabled, like the tracer),
//! * [`metrics`] — a hierarchical end-of-run metrics registry with
//!   deterministic JSON export,
//! * [`collections`] — fixed-seed hash maps/sets ([`DetHashMap`],
//!   [`DetHashSet`]) so model state never depends on process entropy.
//!
//! # Example
//!
//! ```
//! use sim_engine::{Cycle, LaneQueue};
//!
//! let mut q = LaneQueue::new();
//! q.schedule(Cycle(10), "late");
//! q.schedule(Cycle(5), "early");
//! q.schedule(Cycle(5), "early, second");
//! assert_eq!(q.pop(), Some((Cycle(5), "early")));
//! assert_eq!(q.pop(), Some((Cycle(5), "early, second")));
//! assert_eq!(q.pop_before(Cycle(10)), None); // the horizon is exclusive
//! assert_eq!(q.pop(), Some((Cycle(10), "late")));
//! ```

// Every model crate depends on this one, so this is where the 64-bit host
// assumption is checked: cycle counts, addresses and page numbers are
// `u64`, and the `u64 → usize` index casts across the workspace rely on
// `usize` being as wide (their `#[expect]` reasons cite this check).
#[cfg(not(target_pointer_width = "64"))]
compile_error!("the simulator needs a 64-bit host: u64 → usize casts must not truncate");

pub mod collections;
pub mod event;
pub mod lane;
pub mod metrics;
pub mod prof;
pub mod queue;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use collections::{DetHashMap, DetHashSet};
pub use event::EventQueue;
pub use lane::{LanePool, LaneQueue};
pub use metrics::MetricsRegistry;
pub use prof::{Phase, Profiler};
pub use rng::DetRng;
pub use time::Cycle;
pub use trace::{Tracer, Track};
