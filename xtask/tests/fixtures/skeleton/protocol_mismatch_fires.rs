//! `protocol_match` / `deadlock_check` positives: a rank-conditional branch
//! whose arms emit different collective sequences, reached only through
//! helpers — no collective name appears near the `rank` test — and the
//! count mismatch (barrier + broadcast vs broadcast alone) is exactly the
//! shape that hangs a real job.

pub fn sweep_report_dist(comm: &Communicator, x: f64) -> f64 {
    let rank = comm.rank();
    let y = stage_reduce(comm, x);
    if rank == 0 {
        sync_team(comm);
        share_result(comm, y);
    } else {
        share_result(comm, y);
    }
    y
}

fn stage_reduce(comm: &Communicator, x: f64) -> f64 {
    comm.allreduce_sum(x)
}

fn sync_team(comm: &Communicator) {
    comm.barrier();
}

fn share_result(comm: &Communicator, y: f64) {
    comm.broadcast(0, y);
}
