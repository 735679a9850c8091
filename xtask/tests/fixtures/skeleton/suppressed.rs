//! Suppression fixture for the skeleton passes: every finding below is
//! real (each fires without its annotation) and every annotation must be
//! consumed.

// analyze::allow(deadlock_check): fixture — documented handshake; the
// schedule is serialized by an out-of-band barrier in the caller.
pub fn handshake_dist(comm: &Communicator, buf: f64) -> f64 {
    let rank = comm.rank();
    let peer = rank ^ 1;
    let got = comm.recv(peer); // analyze::allow(p2p_pairing): fixture — see above.
    comm.send(peer, got + buf);
    got
}

fn lead_sync(comm: &Communicator) {
    comm.barrier();
}

// analyze::allow(deadlock_check): fixture — rank 0's extra barrier is
// matched by the watchdog thread in the scenario this models.
pub fn staged_bcast_dist(comm: &Communicator, y: f64) -> f64 {
    let rank = comm.rank();
    // analyze::allow(protocol_match): fixture — asymmetry documented above.
    if rank == 0 {
        lead_sync(comm); // analyze::allow(collective_order): fixture — see above.
        comm.broadcast(0, y); // analyze::allow(collective_order): fixture — see above.
    } else {
        comm.broadcast(0, y); // analyze::allow(collective_order): fixture — see above.
    }
    y
}
