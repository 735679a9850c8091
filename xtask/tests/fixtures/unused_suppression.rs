//! Fixture: a suppression that silences nothing must be reported.

// analyze::allow(p2p_pairing): nothing on the next line sends or receives
fn fine(x: u32) -> u32 {
    x + 1
}
