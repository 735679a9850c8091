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
