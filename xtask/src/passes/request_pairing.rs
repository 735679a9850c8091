//! Pass `request_pairing`: nonblocking posts whose `Request` is dropped.
//!
//! The nonblocking `Communicator` primitives (`iallreduce_sum`, `isend`,
//! `irecv`) return a `Request` handle that must be retired with `wait()`
//! (or probed with `test()`, or deliberately decoupled with `detach()`).
//! Dropping the handle loses the completion point: the debug-build drop
//! check panics at runtime, and in release the posted exchange silently
//! desynchronizes the rank's FIFO completion order from its peers. Three
//! lexical shapes reliably indicate the bug:
//!
//! 1. a post in statement position — `comm.iallreduce_sum(buf);` — drops
//!    the `Request` at the end of the statement, before any wait can run;
//! 2. a post chained into a non-retiring method — the only methods a
//!    `Request` offers are `wait`/`test`/`detach`, so any other chain can
//!    only be a mistake;
//! 3. a post bound to a variable that is never mentioned again in the
//!    function — no path can wait it.
//!
//! A bound handle that *is* mentioned again (waited, pushed into a vector
//! of in-flight requests, returned, passed on) is accepted without data-flow
//! analysis: `VerifyComm`'s deferred checks and the runtime drop check
//! cover the residual cases. Functions whose own name contains
//! `send`/`recv`/`allreduce` (communicator backends and decorators, which
//! legitimately split post and wait across methods) are exempt, mirroring
//! `p2p_pairing`.

use super::{is_method_call, Diagnostic, Pass};
use crate::scanner::{CodeModel, TokenKind};

/// The nonblocking post methods (the `Request`-returning call surface).
const POSTS: &[&str] = &["iallreduce_sum", "isend", "irecv"];

/// Methods that legitimately consume a `Request`.
const CONSUMERS: &[&str] = &["wait", "test", "detach"];

/// See the module docs.
pub struct RequestPairing;

impl Pass for RequestPairing {
    fn name(&self) -> &'static str {
        "request_pairing"
    }

    fn description(&self) -> &'static str {
        "nonblocking post (iallreduce_sum/isend/irecv) whose Request is dropped in statement \
         position, chained into a non-retiring method, or bound but never waited/tested/detached"
    }

    fn run(&self, file: &str, model: &CodeModel, out: &mut Vec<Diagnostic>) {
        let toks = &model.tokens;
        for f in &model.fns {
            let Some((body_start, body_end)) = f.body else {
                continue;
            };
            if f.name.contains("send") || f.name.contains("recv") || f.name.contains("allreduce") {
                continue;
            }
            if model.in_test.get(f.fn_idx).copied().unwrap_or(false) {
                continue;
            }
            let body_end = body_end.min(toks.len() - 1);
            for i in body_start..=body_end {
                if model.in_test[i] {
                    continue;
                }
                if model.enclosing_fn(i).map(|g| g.fn_idx) != Some(f.fn_idx) {
                    continue;
                }
                let Some(&post) = POSTS.iter().find(|&&p| is_method_call(model, i, p)) else {
                    continue;
                };
                let close = model.matching_paren(i + 1);

                // Chained use: `comm.isend(p, b).wait()` retires inline;
                // any other chained method cannot.
                if toks.get(close + 1).is_some_and(|t| t.is_punct(".")) {
                    let chained = toks.get(close + 2);
                    if chained.is_some_and(|t| CONSUMERS.contains(&t.text.as_str())) {
                        continue;
                    }
                    out.push(Diagnostic {
                        pass: self.name(),
                        file: file.to_string(),
                        line: toks[i].line,
                        message: format!(
                            "fn `{}` chains the Request from `.{post}()` into `.{}()`, which does \
                             not retire it: finish the chain with `.wait()` (or `.detach()` if \
                             completion is handed elsewhere)",
                            f.name,
                            chained.map_or(String::new(), |t| t.text.clone()),
                        ),
                    });
                    continue;
                }

                // `let [mut] var = comm.i*(...)` binding: walk back over the
                // receiver chain (`a.b.iallreduce_sum`) to the `=`.
                let mut j = i - 1; // the `.` before the method name
                while j >= 2 && toks[j].is_punct(".") && toks[j - 1].kind == TokenKind::Ident {
                    j -= 2;
                }
                let binding = (j >= 2
                    && toks[j].is_punct("=")
                    && toks[j - 1].kind == TokenKind::Ident
                    && toks
                        .get(j - 2)
                        .is_some_and(|t| t.is_ident("let") || t.is_ident("mut")))
                .then(|| toks[j - 1].text.clone());

                if let Some(var) = binding {
                    // Any later mention of the variable in this fn counts as
                    // a use (wait, push into an in-flight set, return, ...).
                    let used_later = ((close + 1)..=body_end).any(|k| {
                        !model.in_test[k]
                            && model.enclosing_fn(k).map(|g| g.fn_idx) == Some(f.fn_idx)
                            && toks[k].is_ident(&var)
                    });
                    if !used_later {
                        out.push(Diagnostic {
                            pass: self.name(),
                            file: file.to_string(),
                            line: toks[i].line,
                            message: format!(
                                "fn `{}` binds the Request from `.{post}()` to `{var}` but never \
                                 uses it again: the post is never waited on any path — call \
                                 `{var}.wait()` where the result is consumed",
                                f.name
                            ),
                        });
                    }
                    continue;
                }

                // Statement position: the Request is dropped immediately.
                if toks.get(close + 1).is_some_and(|t| t.is_punct(";")) {
                    out.push(Diagnostic {
                        pass: self.name(),
                        file: file.to_string(),
                        line: toks[i].line,
                        message: format!(
                            "fn `{}` drops the Request from `.{post}()` at the end of the \
                             statement: the posted operation is never waited — bind the handle \
                             and `.wait()` it where the result is needed",
                            f.name
                        ),
                    });
                }
                // Anything else (`,`/`)`/...) feeds the Request into an
                // enclosing expression: accepted, see the module docs.
            }
        }
    }
}
