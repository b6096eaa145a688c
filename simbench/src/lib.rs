//! Host-speed benchmark of the Sweeper simulator.
//!
//! Measures what users of the reproduction wait on: the host wall time of a
//! fixed amount of simulated work, the time to build a simulated machine,
//! and the process's peak memory. The simulated outputs are not metrics;
//! they are the output check (see [`fingerprint`]). See `README.md` for the
//! workloads and the map from layer metrics to end-to-end metrics.

pub mod fingerprint;
pub mod measure;
pub mod replay;
pub mod spec;
pub mod timed;
