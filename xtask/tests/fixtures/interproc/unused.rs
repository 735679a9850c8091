//! Unused-suppression fixture: the annotation names a real graph pass but
//! matches no diagnostic, so the default suppression check must report
//! it.

pub fn quiet(x: f64) -> f64 {
    // analyze::allow(collective_order): fixture — nothing fires here.
    x + 1.0
}
