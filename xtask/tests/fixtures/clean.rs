//! Fixture: `collective_order` must stay silent on these correct idioms.

fn rank_uniform_collective(comm: &C) -> f64 {
    let rank = comm.rank();
    let scale = if rank == 0 { 2 } else { 1 };
    let mut buf = [scale as f64];
    comm.allreduce_sum(&mut buf);
    buf[0]
}

fn guarded_exchange(comm: &C, rank: usize) {
    if rank == 0 {
        comm.send(1, &[1.0]);
        let _ = comm.recv(1);
    } else {
        let _ = comm.recv(0);
        comm.send(0, &[1.0]);
    }
}

/// `max_rank` is a TT-rank cap, the same on every rank: only rank ids
/// (`rank`, `vrank`) make a branch rank-dependent.
pub fn seeded_cap(comm: &C, max_rank: usize) {
    if max_rank > 3 {
        comm.barrier();
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let comm = C::new();
        if comm.rank() == 0 {
            comm.barrier();
        }
        comm.send(1, &[1.0]);
    }
}
