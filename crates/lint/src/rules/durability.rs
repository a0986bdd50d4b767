//! L7 — durability-ordering: every journaled mutation follows
//! validate → `stage` → apply, and its result is acknowledged only
//! after the durable ack (`wait`/`commit`/`wait_durable`) — taken either
//! in the staging function itself or by the caller it hands the owed
//! ticket to (a staged body and its waiting wrapper). Every durable
//! entry point poisons on a storage error.
//!
//! Four checks per function:
//!
//! * **L7a — pre-durable state write.** A `ShardMap` mutation
//!   (`update`/`upsert`/`remove_if` closure, `insert`/`remove`)
//!   sequenced strictly before the first `stage`/`commit` call would be
//!   lost by a crash after the mutation and before the journal record:
//!   recovery replays the log, not the heap. The canonical pattern —
//!   staging *inside* the mutating closure, under the shard guard — is
//!   recognized and exempt.
//! * **L7b — fallible apply.** After the durable ack returns, the
//!   journal record is on disk and recovery *will* replay it; an error
//!   return between the ack and the end of the operation leaves the
//!   caller told "failed" for a mutation that is already durable.
//!   `?` and `return Err` in that region are flagged, except on
//!   statements that poison (the fail-stop latch is the one sanctioned
//!   error path).
//! * **L7c — unpoisoned durable entry point.** `stage`, `wait`,
//!   `wait_durable`, `install_snapshot`, and `compact` in the journal
//!   and storage engines must latch the poison flag on their error
//!   paths; a fallible body (contains `?` or `Err`) with no poison
//!   reference fails. Infallible bodies (the in-memory test double) are
//!   exempt by construction.
//! * **L7d — dropped ticket.** Outside the journal and storage engines,
//!   a function that stages but takes no durable ack must hand the
//!   owed ticket to its caller: its return type names `Staged` (a
//!   result plus the ticket it owes) or `Ticket`. Otherwise nothing
//!   waits for the record, and the caller may acknowledge a result
//!   that a crash would lose.

use crate::callgraph::Workspace;
use crate::diag::{Finding, Rule};
use crate::flow;
use crate::lexer::Kind;
use crate::source::SourceFile;

/// `ShardMap` closure ops that mutate state.
const MUTATING_OPS: &[&str] = &["update", "upsert", "remove_if"];

/// `ShardMap` instant ops that mutate state.
const MUTATING_CALLS: &[&str] = &["insert", "remove"];

/// Function names that are durable entry points (L7c).
const DURABLE_ENTRY_POINTS: &[&str] = &[
    "stage",
    "wait",
    "wait_durable",
    "install_snapshot",
    "compact",
];

/// Runs the durability-ordering checks over one file.
#[must_use]
pub fn check_durability(file: &SourceFile, ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    let toks = &file.tokens;
    for inst in ws.fns_in(&file.rel_path) {
        let Some((open, close)) = inst.def.body() else {
            continue;
        };
        let close = close.min(toks.len());
        // Method calls `.stage(` / `.commit(` / `.wait(` / `.wait_durable(`.
        let marker = |names: &[&str]| -> Vec<usize> {
            (open + 1..close)
                .filter(|&i| {
                    toks[i].kind == Kind::Ident
                        && names.contains(&toks[i].text.as_str())
                        && i > 0
                        && toks[i - 1].is_punct(".")
                        && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
                        && file.is_live(i)
                })
                .collect()
        };
        let stages = marker(&["stage", "commit"]);
        let acks = marker(&["wait", "commit", "wait_durable"]);
        let is_durable_file = file.rel_path == "crates/accounting/src/journal.rs"
            || file.rel_path.starts_with("crates/storage/src/");

        // L7a — mutation strictly before the first stage.
        if let Some(&first_stage) = stages.first() {
            for a in &inst.acquisitions {
                let staged_inside = first_stage > a.range.0 && first_stage < a.range.1;
                if MUTATING_OPS.contains(&a.method.as_str())
                    && a.tok < first_stage
                    && !staged_inside
                {
                    findings.push(mk(
                        file,
                        a.line,
                        format!(
                            "shard-state mutation (`{}`) sequenced before the journal \
                             `stage` — a crash between them loses the mutation; stage \
                             the record first (or inside the mutating closure)",
                            a.method
                        ),
                    ));
                }
            }
            for c in &inst.matched {
                if MUTATING_CALLS.contains(&c.name.as_str())
                    && c.shard_receiver.is_some()
                    && c.tok < first_stage
                {
                    findings.push(mk(
                        file,
                        c.line,
                        format!(
                            "shard-state mutation (`{}`) sequenced before the journal \
                             `stage` — a crash between them loses the mutation; stage \
                             the record first",
                            c.name
                        ),
                    ));
                }
            }
        }

        // L7b — fallible statements between the durable ack and the end
        // of the operation (first `drop(` or body end).
        if let Some(&ack) = acks.first() {
            let region_start = flow::stmt_end(toks, ack).min(close);
            let region_end = (region_start..close)
                .find(|&i| {
                    toks[i].kind == Kind::Ident
                        && toks[i].text == "drop"
                        && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
                })
                .unwrap_or(close);
            let mut i = region_start + 1;
            while i < region_end {
                let fallible = (toks[i].is_punct("?") && file.is_live(i))
                    || (toks[i].kind == Kind::Ident
                        && toks[i].text == "Err"
                        && i > 0
                        && toks[i - 1].kind == Kind::Ident
                        && toks[i - 1].text == "return"
                        && file.is_live(i));
                if fallible {
                    let s = flow::stmt_start(toks, i);
                    let e = flow::stmt_end(toks, i).min(region_end);
                    let poisons = (s..=e.min(close - 1))
                        .any(|j| toks[j].kind == Kind::Ident && toks[j].text.contains("poison"));
                    if !poisons {
                        findings.push(mk(
                            file,
                            toks[i].line,
                            "fallible statement after the durable ack — the journal \
                             record is already on disk and recovery will replay it, \
                             but this error path tells the caller the operation \
                             failed; move fallible work before `stage`, or poison"
                                .to_string(),
                        ));
                    }
                    i = e + 1;
                    continue;
                }
                i += 1;
            }
        }

        // L7c — durable entry points must poison on their error paths.
        if is_durable_file && DURABLE_ENTRY_POINTS.contains(&inst.def.name.as_str()) {
            let fallible = (open + 1..close).any(|i| {
                file.is_live(i)
                    && (toks[i].is_punct("?")
                        || (toks[i].kind == Kind::Ident && toks[i].text == "Err"))
            });
            let poisons = (open + 1..close)
                .any(|i| toks[i].kind == Kind::Ident && toks[i].text.contains("poison"));
            if fallible && !poisons {
                findings.push(mk(
                    file,
                    inst.def.line,
                    format!(
                        "durable entry point `{}` has a fallible body but never \
                         poisons — a storage error must latch the fail-stop flag, \
                         not leave the journal half-applied",
                        inst.def.name
                    ),
                ));
            }
        }

        // L7d — a staging function without an ack hands its ticket on.
        let returns_ticket = inst
            .def
            .ret_text
            .split(' ')
            .any(|t| t == "Staged" || t == "Ticket");
        if !is_durable_file && !stages.is_empty() && acks.is_empty() && !returns_ticket {
            findings.push(mk(
                file,
                inst.def.line,
                format!(
                    "`{}` stages a journal record but neither waits for it nor \
                     returns the owed ticket (`Staged`/`Ticket`) — its caller \
                     could acknowledge a result a crash would lose",
                    inst.def.name
                ),
            ));
        }
    }
    findings.sort_by_key(|f| f.line);
    findings
}

fn mk(file: &SourceFile, line: u32, message: String) -> Finding {
    Finding {
        rule: Rule::Durability,
        path: file.rel_path.clone(),
        line,
        message,
        snippet: file.line_text(line).to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let files = vec![SourceFile::new(
            "crates/accounting/src/server.rs",
            src.to_string(),
        )];
        let ws = Workspace::build(&files);
        check_durability(&files[0], &ws)
    }

    #[test]
    fn stage_inside_mutating_closure_is_the_pattern() {
        let f = run("struct S { accounts: ShardMap<u64, u64> }\n\
             impl S { fn settle(&self, j: &J) -> Result<(), E> {\n\
             self.accounts.update(&1, |a| { j.stage(&r)?; a.balance += 1; Ok(()) })?;\n\
             j.wait(t)?; Ok(()) } }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn mutation_before_stage_is_flagged() {
        let f = run("struct S { accounts: ShardMap<u64, u64> }\n\
             impl S { fn settle(&self, j: &J) -> Result<(), E> {\n\
             self.accounts.update(&1, |a| { a.balance += 1; });\n\
             j.stage(&r)?; j.wait(t)?; Ok(()) } }");
        assert!(
            f.iter().any(|x| x.message.contains("before the journal")),
            "{f:?}"
        );
    }

    #[test]
    fn fallible_call_after_ack_is_flagged() {
        let f = run("struct S { accounts: ShardMap<u64, u64> }\n\
             impl S { fn forward(&self, j: &J, c: &mut Check) -> Result<(), E> {\n\
             j.commit(&r)?;\n\
             c.endorse(&id)?;\n\
             Ok(()) } }");
        assert!(
            f.iter()
                .any(|x| x.message.contains("after the durable ack")),
            "{f:?}"
        );
    }

    #[test]
    fn poisoning_error_path_after_ack_is_sanctioned() {
        let f = run("struct S { accounts: ShardMap<u64, u64> }\n\
             impl S { fn op(&self, j: &J) -> Result<(), E> {\n\
             j.wait(t)?;\n\
             self.apply().map_err(|e| self.poison(e))?;\n\
             Ok(()) } }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn staged_body_returning_its_ticket_is_the_pattern() {
        let f = run("struct S { accounts: ShardMap<u64, u64> }\n\
             impl S {\n\
             fn deposit_staged(&self, j: &J) -> Result<Staged<u64>, E> {\n\
             let mut owed = None;\n\
             self.accounts.update(&1, |a| { owed = Some(j.stage(&r)?); *a += 1; Ok(()) })?;\n\
             Ok(Staged { value: 1, owed }) }\n\
             fn deposit(&self, j: &J) -> Result<u64, E> {\n\
             let s = self.deposit_staged(j)?;\n\
             if let Some(t) = s.owed { j.wait(t)?; }\n\
             Ok(s.value) } }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn staging_without_ack_or_ticket_is_flagged() {
        let f = run("struct S { accounts: ShardMap<u64, u64> }\n\
             impl S { fn deposit(&self, j: &J) -> Result<u64, E> {\n\
             self.accounts.update(&1, |a| { j.stage(&r)?; *a += 1; Ok(()) })?;\n\
             Ok(1) } }");
        assert!(f.iter().any(|x| x.message.contains("owed ticket")), "{f:?}");
    }

    #[test]
    fn unpoisoned_durable_entry_point_is_flagged() {
        let files = vec![SourceFile::new(
            "crates/storage/src/wal.rs",
            "struct W { state: Mutex<u8> }\n\
             impl W { fn stage(&self, rec: &[u8]) -> Result<u64, E> {\n\
             let mut st = self.state.lock();\n\
             self.append(rec)?;\n\
             Ok(1) } }"
                .to_string(),
        )];
        let ws = Workspace::build(&files);
        let f = check_durability(&files[0], &ws);
        assert!(
            f.iter().any(|x| x.message.contains("never poisons")),
            "{f:?}"
        );
    }

    #[test]
    fn infallible_entry_point_needs_no_poison() {
        let files = vec![SourceFile::new(
            "crates/storage/src/mem.rs",
            "struct M { inner: Mutex<Vec<u8>> }\n\
             impl M { fn stage(&self, rec: &[u8]) -> u64 {\n\
             let mut g = self.inner.lock();\n\
             g.extend_from_slice(rec); 1 } }"
                .to_string(),
        )];
        let ws = Workspace::build(&files);
        let f = check_durability(&files[0], &ws);
        assert!(f.is_empty(), "{f:?}");
    }
}
