//! Discrete-event simulation kernel used by every other crate in the IDYLL
//! reproduction workspace.
//!
//! The kernel deliberately contains no domain knowledge: it provides
//!
//! * [`Cycle`] — the simulated time base (GPU core cycles at 1 GHz),
//! * [`EventQueue`] — a deterministic future-event list,
//! * [`lane`] — per-lane arena-indexed event lists, queue pooling, and the
//!   deterministic cross-lane merge key used by the parallel event core,
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
//! use sim_engine::{Cycle, EventQueue};
//!
//! let mut q = EventQueue::new();
//! q.schedule(Cycle(10), "late");
//! q.schedule(Cycle(5), "early");
//! let (t, e) = q.pop().unwrap();
//! assert_eq!((t, e), (Cycle(5), "early"));
//! ```

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
pub mod tracelog;

pub use collections::{DetHashMap, DetHashSet};
pub use event::EventQueue;
pub use lane::{LanePool, LaneQueue};
pub use metrics::MetricsRegistry;
pub use prof::{Phase, Profiler};
pub use rng::DetRng;
pub use time::Cycle;
pub use trace::{Tracer, Track};
