//! Fixture: malformed suppressions (missing reason, unknown pass) error out.

// analyze::allow(p2p_pairing):
fn a() {}

// analyze::allow(no_such_pass): the pass name does not exist
fn b() {}
