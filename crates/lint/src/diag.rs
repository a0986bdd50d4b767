//! Findings: named, file:line-reported diagnostics.

use std::fmt;

/// The eight enforced rule families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// L1 — panic-freedom on untrusted-input paths.
    PanicFree,
    /// L2 — fail-closed restriction matching.
    FailClosed,
    /// L3 — constant-time discipline for secret byte material.
    ConstTime,
    /// L4 — determinism: no ambient clocks or sleeps in deterministic
    /// crates.
    Determinism,
    /// L5 — crate-root hygiene headers.
    Hygiene,
    /// L6 — lock-order: acyclic lock-acquisition graph, no blocking
    /// operations while a shard guard is live.
    LockOrder,
    /// L7 — durability-ordering: validate → stage → apply, acknowledged
    /// only after the durable ack (in the staging function or by the
    /// caller it returns the owed ticket to), with poison-on-storage-error.
    Durability,
    /// L8 — untrusted-length taint: decoded lengths must pass a bound
    /// check before reaching allocation or indexing sinks.
    Taint,
}

/// Report severity for a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// Fails the run.
    Error,
    /// Reported but advisory (still fails unless allowlisted; the tag
    /// signals how urgent a fix is).
    Warning,
}

impl Severity {
    /// Lower-case label used in reports and JSON output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

impl Rule {
    /// The short code used in reports and `lint-allow.toml` (`"L1"`…).
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            Rule::PanicFree => "L1",
            Rule::FailClosed => "L2",
            Rule::ConstTime => "L3",
            Rule::Determinism => "L4",
            Rule::Hygiene => "L5",
            Rule::LockOrder => "L6",
            Rule::Durability => "L7",
            Rule::Taint => "L8",
        }
    }

    /// The rule's human name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::PanicFree => "panic-free",
            Rule::FailClosed => "fail-closed",
            Rule::ConstTime => "const-time",
            Rule::Determinism => "determinism",
            Rule::Hygiene => "crate-hygiene",
            Rule::LockOrder => "lock-order",
            Rule::Durability => "durability-ordering",
            Rule::Taint => "untrusted-length-taint",
        }
    }

    /// Report severity of this rule family. Crate-root hygiene is the
    /// one advisory family; every invariant family is an error.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            Rule::Hygiene => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// Parses a rule code (`"L1"`…`"L5"`).
    #[must_use]
    pub fn from_code(code: &str) -> Option<Rule> {
        match code {
            "L1" => Some(Rule::PanicFree),
            "L2" => Some(Rule::FailClosed),
            "L3" => Some(Rule::ConstTime),
            "L4" => Some(Rule::Determinism),
            "L5" => Some(Rule::Hygiene),
            "L6" => Some(Rule::LockOrder),
            "L7" => Some(Rule::Durability),
            "L8" => Some(Rule::Taint),
            _ => None,
        }
    }
}

/// One diagnostic: a rule violated at a file:line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule family fired.
    pub rule: Rule,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// What went wrong and what to do instead.
    pub message: String,
    /// The trimmed offending source line (allowlist patterns match
    /// against this).
    pub snippet: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}/{}] {}",
            self.path,
            self.line,
            self.rule.code(),
            self.rule.name(),
            self.message
        )?;
        if !self.snippet.is_empty() {
            write!(f, "\n    | {}", self.snippet)?;
        }
        Ok(())
    }
}
