//! Fixture: `collective_order` fires on rank-guarded collectives.

fn guarded_broadcast(comm: &C) {
    let rank = comm.rank();
    if rank == 0 {
        comm.broadcast(0, &mut [0.0]);
    }
}

fn collective_after_guarded_return(comm: &C) {
    if comm.rank() > 0 {
        return;
    }
    comm.barrier();
}

/// Next to the clean fixture's `max_rank > 3` branch: a rank id makes the
/// same barrier rank-dependent.
fn rank_zero_barrier(comm: &C) {
    if comm.rank() == 0 {
        comm.barrier();
    }
}
