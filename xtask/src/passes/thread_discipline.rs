//! Pass `thread_discipline`: shared-memory parallelism outside the
//! scoped fork/join shape.
//!
//! Every numeric kernel runs on its caller's thread; the parallelism is
//! one rank per core, across `tt-comm` ranks (DESIGN.md §6). A thread a
//! numeric crate does start must be forked with `std::thread::scope` over
//! *disjoint* output blocks and joined before returning, so its results
//! stay bitwise identical to the serial ones. Two constructs break that
//! shape and are flagged in library code:
//!
//! * **`thread::spawn`** — a detached thread escapes the fork/join scope:
//!   nothing guarantees it is joined before the kernel returns, and a
//!   panic in it is silently lost instead of propagated. Use
//!   `std::thread::scope`.
//! * **`Mutex` / `RwLock` / `Condvar`** — lock-based sharing means
//!   threads contend for one resource instead of owning disjoint slices;
//!   whoever wins the lock is scheduling-dependent, which is exactly the
//!   accumulation-order nondeterminism the determinism contract forbids.
//!
//! `tt-comm` is exempt by allowlist: its rank threads are long-lived by
//! design and its collectives are built on locks and condvars — the
//! determinism story there is the collective algebra, not lock-freedom.

use super::{Diagnostic, Pass};
use crate::scanner::CodeModel;

/// Lock-based synchronization primitives (the flagged identifiers).
const LOCK_TYPES: &[&str] = &["Mutex", "RwLock", "Condvar"];

/// See the module docs.
pub struct ThreadDiscipline;

impl Pass for ThreadDiscipline {
    fn name(&self) -> &'static str {
        "thread_discipline"
    }

    fn description(&self) -> &'static str {
        "detached `thread::spawn` and lock types in numeric code (parallelism must be \
         scoped fork/join over disjoint output blocks — DESIGN.md §11)"
    }

    fn allowlist(&self) -> &'static [&'static str] {
        // tt-comm's rank threads and lock-built collectives are the point
        // of that crate; vendored shims mirror external crate APIs.
        &["crates/tt-comm", "vendor"]
    }

    fn run(&self, file: &str, model: &CodeModel, out: &mut Vec<Diagnostic>) {
        let toks = &model.tokens;
        for i in 0..toks.len() {
            if model.in_test[i] {
                continue;
            }
            let t = &toks[i];
            // Path call `thread::spawn(` (covers `std::thread::spawn` too).
            if t.is_ident("spawn")
                && i >= 2
                && toks[i - 1].is_punct("::")
                && toks[i - 2].is_ident("thread")
                && toks.get(i + 1).is_some_and(|u| u.is_punct("("))
            {
                out.push(Diagnostic {
                    pass: self.name(),
                    file: file.to_string(),
                    line: t.line,
                    message: "detached `thread::spawn` escapes the fork/join scope — joins are \
                              not guaranteed and panics are lost; use `std::thread::scope`, or \
                              suppress stating why this thread may outlive its caller"
                        .to_string(),
                });
                continue;
            }
            if LOCK_TYPES.iter().any(|l| t.is_ident(l)) {
                out.push(Diagnostic {
                    pass: self.name(),
                    file: file.to_string(),
                    line: t.line,
                    message: format!(
                        "`{}` in numeric code: lock-based sharing makes scheduling observable — \
                         partition disjoint output blocks instead (bitwise determinism, \
                         DESIGN.md §11), or suppress stating why the protected state cannot \
                         affect numeric results",
                        t.text
                    ),
                });
            }
        }
    }
}
