//! Cross-file helpers for the interprocedural fixtures: facts extracted
//! here must propagate to call sites in the sibling fixture files.

/// Two hops above the collective: callers acquire the fact transitively.
pub fn deep_reduce(comm: &Communicator, x: f64) -> f64 {
    mid_reduce(comm, x)
}

fn mid_reduce(comm: &Communicator, x: f64) -> f64 {
    comm.allreduce_sum(x)
}
