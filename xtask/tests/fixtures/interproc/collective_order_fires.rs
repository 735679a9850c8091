//! `collective_order` positives: calls to transitively-collective helpers
//! from rank-divergent control flow. No collective *name* appears near the
//! `rank` tests: only the call graph's transitive facts tie these calls to
//! a collective.

/// Same-file helper: both the guarded call and the call in the
/// rank-guarded-return shadow must fire.
pub fn round_guarded(comm: &Communicator, rank: usize, x: f64) -> f64 {
    if rank == 0 {
        return helper_reduce(comm, x);
    }
    helper_reduce(comm, x)
}

fn helper_reduce(comm: &Communicator, x: f64) -> f64 {
    comm.allreduce_sum(x)
}

/// Cross-file, two hops deep: the witness chain walks through
/// `helpers.rs::deep_reduce` → `mid_reduce` → the collective itself.
pub fn gram_sweep_guarded(comm: &Communicator, rank: usize, x: f64) -> f64 {
    let mut acc = 0.0;
    if rank != 0 {
        acc += deep_reduce(comm, x);
    }
    acc
}

/// The helper call sits in the `else` arm of a rank test: every chained
/// arm of a rank conditional is rank-dependent too.
pub fn share_guarded(comm: &Communicator, rank: usize, x: f64) -> f64 {
    if rank == 0 {
        x
    } else {
        helper_reduce(comm, x)
    }
}

/// The helper call sits in one arm of a `match` on the rank.
pub fn split_by_rank(comm: &Communicator, x: f64) -> f64 {
    match comm.rank() {
        0 => helper_reduce(comm, x),
        _ => x,
    }
}
