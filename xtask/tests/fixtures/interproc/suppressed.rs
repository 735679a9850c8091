//! Suppression fixture for the graph passes: the finding below is real (it
//! fires without the annotation) and the annotation must be consumed.

pub fn round_suppressed(comm: &Communicator, rank: usize, x: f64) -> f64 {
    if rank == 0 {
        // analyze::allow(collective_order): fixture — the caller runs this on
        // a one-rank communicator.
        return deep_reduce(comm, x);
    }
    x
}
