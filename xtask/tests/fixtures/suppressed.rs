//! Fixture: valid suppressions silence findings (standalone and trailing).

fn documented_one_way_push(comm: &C) {
    // analyze::allow(p2p_pairing): fixture — the peer's matching recv is posted by its caller
    comm.send(1, &[1.0]);
}

fn documented_rank_branch(comm: &C, rank: usize) {
    if rank == 0 {
        comm.barrier(); // analyze::allow(collective_order): fixture — only ever run on one rank
    }
}
