//! The JSONL job protocol `mwrepaird` accepts.
//!
//! One JSON document per line, externally tagged by line kind:
//!
//! ```text
//! {"Job":{"id":"j-1","tenant":"acme","scenario":{"Synthetic":{...}},
//!         "algorithm":"Slate","seed":7,"max_iterations":400}}
//! {"Budget":{"tenant":"acme","max_evals":100000,"max_ms":null}}
//! ```
//!
//! Blank lines are skipped. Parsing is strict and total: every rejection
//! carries the 1-based line number and a precise reason, duplicate job ids
//! and duplicate tenant budgets are errors, over-long and over-nested lines
//! are rejected before the JSON parser ever sees them (the vendored parser
//! recurses per nesting level, so [`MAX_NESTING_DEPTH`] is what makes
//! arbitrary byte noise safe), and no input — malformed, truncated, or
//! random bytes — panics the parser. `tests/tests/service.rs` fuzzes
//! exactly that claim.

use apr_sim::{BugScenario, ScenarioKind};
use mwrepair::VariantChoice;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

/// Longest accepted protocol line, in bytes.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Deepest accepted JSON nesting. Valid protocol lines nest 4 levels; the
/// cap exists so crafted `[[[[…` noise cannot blow the parser's stack.
pub const MAX_NESTING_DEPTH: usize = 16;

/// Longest accepted job id / tenant name.
const MAX_NAME_LEN: usize = 100;

/// The bug scenario a job runs against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScenarioSpec {
    /// A named scenario from the paper catalog
    /// ([`BugScenario::catalog_all`]).
    Catalog {
        /// Catalog name, e.g. `"gzip-2009-08-16"`.
        name: String,
    },
    /// A synthetic scenario built from explicit knobs
    /// ([`BugScenario::custom`]).
    Synthetic {
        /// Scenario name (also part of the pool-cache identity).
        name: String,
        /// Option count `k` (bandit arms are 1..=k compositions).
        options: usize,
        /// Where the repair-density optimum falls.
        x_star: usize,
        /// Program statements.
        statements: usize,
        /// Test-suite size.
        tests: usize,
        /// Fraction of compositions that repair.
        repair_rate: f64,
        /// World seed fixing the mutation space.
        world_seed: u64,
        /// Precompute-pool target size (default: `options`).
        pool_size: Option<usize>,
    },
}

impl ScenarioSpec {
    /// Cache key: two jobs with equal keys share one scenario + pool.
    pub fn cache_key(&self) -> String {
        serde_json::to_string(self).expect("scenario spec serializes")
    }

    /// Validate without building (catalog existence, custom-knob ranges).
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ScenarioSpec::Catalog { name } => {
                if !BugScenario::in_catalog(name) {
                    return Err(format!("unknown catalog scenario {name:?}"));
                }
            }
            ScenarioSpec::Synthetic {
                name,
                options,
                x_star,
                statements,
                tests,
                repair_rate,
                pool_size,
                ..
            } => {
                if name.is_empty() {
                    return Err("synthetic scenario name must be non-empty".into());
                }
                if *options < 2 {
                    return Err(format!("options must be >= 2, got {options}"));
                }
                if *x_star < 1 || x_star > options {
                    return Err(format!("x_star must be in 1..={options}, got {x_star}"));
                }
                if *statements == 0 || *tests == 0 {
                    return Err("statements and tests must be positive".into());
                }
                if !(0.0..=1.0).contains(repair_rate) {
                    return Err(format!("repair_rate must be in [0,1], got {repair_rate}"));
                }
                if pool_size == &Some(0) {
                    return Err("pool_size must be positive".into());
                }
            }
        }
        Ok(())
    }

    /// Materialize the scenario (infallible after [`Self::validate`]).
    pub fn build(&self) -> Result<BugScenario, String> {
        self.validate()?;
        Ok(match self {
            ScenarioSpec::Catalog { name } => {
                BugScenario::by_name(name).expect("validated catalog name")
            }
            ScenarioSpec::Synthetic {
                name,
                options,
                x_star,
                statements,
                tests,
                repair_rate,
                world_seed,
                pool_size,
            } => {
                let s = BugScenario::custom(
                    name,
                    ScenarioKind::Synthetic,
                    *options,
                    *x_star,
                    *statements,
                    *tests,
                    *repair_rate,
                    *world_seed,
                );
                match pool_size {
                    Some(p) => s.with_pool_size(*p),
                    None => s,
                }
            }
        })
    }
}

/// One repair session to run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Unique job id (path-safe; names the session directory).
    pub id: String,
    /// Owning tenant (path-safe; groups sessions for budgets and traces).
    pub tenant: String,
    /// Scenario to repair.
    pub scenario: ScenarioSpec,
    /// MWU variant driving the session.
    pub algorithm: VariantChoice,
    /// Session RNG seed.
    pub seed: u64,
    /// Update-cycle cap `T`.
    pub max_iterations: usize,
}

impl JobSpec {
    /// Validate ids and knobs; the error says exactly what is wrong.
    pub fn validate(&self) -> Result<(), String> {
        check_name("job id", &self.id)?;
        check_name("tenant", &self.tenant)?;
        if self.max_iterations == 0 {
            return Err("max_iterations must be positive".into());
        }
        self.scenario
            .validate()
            .map_err(|e| format!("scenario: {e}"))
    }
}

/// A per-tenant cost budget, enforced at round barriers over the sum of
/// the tenant's session cost snapshots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BudgetSpec {
    /// Tenant the budget applies to.
    pub tenant: String,
    /// Cap on total fitness evaluations (`None`: unlimited).
    pub max_evals: Option<u64>,
    /// Cap on total simulated test milliseconds (`None`: unlimited).
    pub max_ms: Option<u64>,
}

impl BudgetSpec {
    /// Validate the tenant name and that the budget constrains something.
    pub fn validate(&self) -> Result<(), String> {
        check_name("tenant", &self.tenant)?;
        if self.max_evals.is_none() && self.max_ms.is_none() {
            return Err("budget must set max_evals and/or max_ms".into());
        }
        Ok(())
    }

    /// Is `evals` / `ms` over this budget?
    pub fn exceeded(&self, evals: u64, ms: u64) -> bool {
        self.max_evals.is_some_and(|cap| evals > cap) || self.max_ms.is_some_and(|cap| ms > cap)
    }
}

/// One line of the protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobLine {
    /// Submit a session.
    Job(JobSpec),
    /// Set a tenant budget.
    Budget(BudgetSpec),
}

/// A fully parsed, validated, duplicate-free submission.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobBatch {
    /// Jobs in submission order.
    pub jobs: Vec<JobSpec>,
    /// Budgets in submission order (at most one per tenant).
    pub budgets: Vec<BudgetSpec>,
}

/// Why a submission was rejected. Every variant names the offending
/// 1-based line so callers can point at the exact input.
#[derive(Debug)]
pub enum ProtocolError {
    /// A line is not valid UTF-8.
    Utf8 {
        /// Offending line (1-based).
        line: usize,
    },
    /// A line exceeds [`MAX_LINE_BYTES`].
    TooLong {
        /// Offending line (1-based).
        line: usize,
        /// Its length in bytes.
        len: usize,
    },
    /// A line nests deeper than [`MAX_NESTING_DEPTH`].
    TooDeep {
        /// Offending line (1-based).
        line: usize,
    },
    /// A line is not a JSON `JobLine` document.
    Malformed {
        /// Offending line (1-based).
        line: usize,
        /// Parser / decoder reason.
        message: String,
    },
    /// A line decodes but fails semantic validation.
    Invalid {
        /// Offending line (1-based).
        line: usize,
        /// Validation reason.
        message: String,
    },
    /// Two job lines share an id.
    DuplicateId {
        /// Line of the second occurrence (1-based).
        line: usize,
        /// The repeated job id.
        id: String,
    },
    /// Two budget lines target one tenant.
    DuplicateBudget {
        /// Line of the second occurrence (1-based).
        line: usize,
        /// The repeated tenant.
        tenant: String,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Utf8 { line } => write!(f, "line {line}: not valid UTF-8"),
            ProtocolError::TooLong { line, len } => write!(
                f,
                "line {line}: {len} bytes exceeds the {MAX_LINE_BYTES}-byte line limit"
            ),
            ProtocolError::TooDeep { line } => write!(
                f,
                "line {line}: JSON nests deeper than {MAX_NESTING_DEPTH} levels"
            ),
            ProtocolError::Malformed { line, message } => {
                write!(f, "line {line}: malformed job line: {message}")
            }
            ProtocolError::Invalid { line, message } => {
                write!(f, "line {line}: invalid job line: {message}")
            }
            ProtocolError::DuplicateId { line, id } => {
                write!(f, "line {line}: duplicate job id {id:?}")
            }
            ProtocolError::DuplicateBudget { line, tenant } => {
                write!(f, "line {line}: duplicate budget for tenant {tenant:?}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Encode one protocol line (no trailing newline). [`parse_line`] inverts
/// this exactly.
pub fn encode_line(line: &JobLine) -> String {
    serde_json::to_string(line).expect("job line serializes")
}

/// Parse and validate one line (`line_no` is used in errors, 1-based).
pub fn parse_line(text: &str, line_no: usize) -> Result<JobLine, ProtocolError> {
    if text.len() > MAX_LINE_BYTES {
        return Err(ProtocolError::TooLong {
            line: line_no,
            len: text.len(),
        });
    }
    if nesting_depth(text) > MAX_NESTING_DEPTH {
        return Err(ProtocolError::TooDeep { line: line_no });
    }
    let value = serde_json::from_str_value(text).map_err(|e| ProtocolError::Malformed {
        line: line_no,
        message: e.to_string(),
    })?;
    let parsed = JobLine::from_value(&value).map_err(|e| ProtocolError::Malformed {
        line: line_no,
        message: e.to_string(),
    })?;
    match &parsed {
        JobLine::Job(j) => j.validate(),
        JobLine::Budget(b) => b.validate(),
    }
    .map_err(|message| ProtocolError::Invalid {
        line: line_no,
        message,
    })?;
    Ok(parsed)
}

/// Parse a whole submission (a spool file or a stdin stream). Blank lines
/// are skipped; the first bad line aborts the batch with its line number.
pub fn parse_jobs(bytes: &[u8]) -> Result<JobBatch, ProtocolError> {
    let mut batch = JobBatch::default();
    let mut ids: HashSet<String> = HashSet::new();
    let mut budget_tenants: HashSet<String> = HashSet::new();
    for (idx, raw) in bytes.split(|&b| b == b'\n').enumerate() {
        let line_no = idx + 1;
        let raw = match raw.last() {
            Some(b'\r') => &raw[..raw.len() - 1],
            _ => raw,
        };
        if raw.len() > MAX_LINE_BYTES {
            return Err(ProtocolError::TooLong {
                line: line_no,
                len: raw.len(),
            });
        }
        let text = std::str::from_utf8(raw).map_err(|_| ProtocolError::Utf8 { line: line_no })?;
        if text.trim().is_empty() {
            continue;
        }
        match parse_line(text.trim(), line_no)? {
            JobLine::Job(job) => {
                if !ids.insert(job.id.clone()) {
                    return Err(ProtocolError::DuplicateId {
                        line: line_no,
                        id: job.id,
                    });
                }
                batch.jobs.push(job);
            }
            JobLine::Budget(budget) => {
                if !budget_tenants.insert(budget.tenant.clone()) {
                    return Err(ProtocolError::DuplicateBudget {
                        line: line_no,
                        tenant: budget.tenant,
                    });
                }
                batch.budgets.push(budget);
            }
        }
    }
    Ok(batch)
}

/// Path-safety check shared by job ids and tenant names: these name
/// directories under the work dir, so they must not traverse or collide.
fn check_name(what: &str, name: &str) -> Result<(), String> {
    if name.is_empty() {
        return Err(format!("{what} must be non-empty"));
    }
    if name.len() > MAX_NAME_LEN {
        return Err(format!("{what} {name:?} exceeds {MAX_NAME_LEN} characters"));
    }
    if let Some(c) = name
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')))
    {
        return Err(format!(
            "{what} {name:?} contains {c:?}; allowed: [A-Za-z0-9._-]"
        ));
    }
    if name.chars().all(|c| c == '.') {
        return Err(format!("{what} {name:?} is a relative path component"));
    }
    Ok(())
}

/// Maximum bracket-nesting depth of `text`, ignoring brackets inside JSON
/// strings. Linear scan; never fails, never recurses.
fn nesting_depth(text: &str) -> usize {
    let (mut depth, mut max, mut in_str, mut escaped) = (0usize, 0usize, false, false);
    for b in text.bytes() {
        if in_str {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_str = false;
            }
        } else {
            match b {
                b'"' => in_str = true,
                b'{' | b'[' => {
                    depth += 1;
                    max = max.max(depth);
                }
                b'}' | b']' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
    }
    max
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn sample_job(id: &str, tenant: &str) -> JobSpec {
        JobSpec {
            id: id.into(),
            tenant: tenant.into(),
            scenario: ScenarioSpec::Synthetic {
                name: "proto-test".into(),
                options: 24,
                x_star: 6,
                statements: 200,
                tests: 10,
                repair_rate: 0.0,
                world_seed: 5,
                pool_size: None,
            },
            algorithm: VariantChoice::Standard,
            seed: 7,
            max_iterations: 12,
        }
    }

    #[test]
    fn encode_parse_round_trip() {
        let lines = [
            JobLine::Job(sample_job("j-1", "acme")),
            JobLine::Budget(BudgetSpec {
                tenant: "acme".into(),
                max_evals: Some(1000),
                max_ms: None,
            }),
        ];
        for line in &lines {
            let text = encode_line(line);
            let back = parse_line(&text, 1).unwrap();
            assert_eq!(&back, line);
        }
    }

    #[test]
    fn batch_skips_blanks_and_orders() {
        let a = encode_line(&JobLine::Job(sample_job("a", "t1")));
        let b = encode_line(&JobLine::Job(sample_job("b", "t2")));
        let budget = encode_line(&JobLine::Budget(BudgetSpec {
            tenant: "t1".into(),
            max_evals: Some(5),
            max_ms: Some(9),
        }));
        let text = format!("\n{a}\r\n\n{budget}\n{b}\n");
        let batch = parse_jobs(text.as_bytes()).unwrap();
        assert_eq!(batch.jobs.len(), 2);
        assert_eq!(batch.jobs[0].id, "a");
        assert_eq!(batch.jobs[1].id, "b");
        assert_eq!(batch.budgets.len(), 1);
    }

    #[test]
    fn duplicate_ids_and_budgets_are_rejected_with_line_numbers() {
        let a = encode_line(&JobLine::Job(sample_job("same", "t1")));
        let text = format!("{a}\n{a}\n");
        match parse_jobs(text.as_bytes()) {
            Err(ProtocolError::DuplicateId { line: 2, id }) => assert_eq!(id, "same"),
            other => panic!("expected duplicate id on line 2, got {other:?}"),
        }
        let b = encode_line(&JobLine::Budget(BudgetSpec {
            tenant: "t".into(),
            max_evals: Some(1),
            max_ms: None,
        }));
        let text = format!("{b}\n{b}\n");
        assert!(matches!(
            parse_jobs(text.as_bytes()),
            Err(ProtocolError::DuplicateBudget { line: 2, .. })
        ));
    }

    #[test]
    fn malformed_invalid_and_hostile_lines_error_precisely() {
        assert!(matches!(
            parse_line("not json", 3),
            Err(ProtocolError::Malformed { line: 3, .. })
        ));
        // Truncated document.
        let text = encode_line(&JobLine::Job(sample_job("j", "t")));
        assert!(matches!(
            parse_line(&text[..text.len() / 2], 1),
            Err(ProtocolError::Malformed { line: 1, .. })
        ));
        // Path-hostile id.
        let mut job = sample_job("j", "t");
        job.id = "../escape".into();
        let line = encode_line(&JobLine::Job(job));
        match parse_line(&line, 4) {
            Err(ProtocolError::Invalid { line: 4, message }) => {
                assert!(message.contains("job id"), "{message}");
            }
            other => panic!("expected invalid id, got {other:?}"),
        }
        // All-dots tenant.
        let mut job = sample_job("j", "t");
        job.tenant = "..".into();
        assert!(parse_line(&encode_line(&JobLine::Job(job)), 1).is_err());
        // Over-deep noise is cut off before the recursive parser runs.
        let deep = "[".repeat(MAX_NESTING_DEPTH + 1);
        assert!(matches!(
            parse_line(&deep, 9),
            Err(ProtocolError::TooDeep { line: 9 })
        ));
        // Over-long line.
        let long = format!("\"{}\"", "x".repeat(MAX_LINE_BYTES));
        assert!(matches!(
            parse_line(&long, 2),
            Err(ProtocolError::TooLong { line: 2, .. })
        ));
        // Non-UTF-8 bytes.
        assert!(matches!(
            parse_jobs(&[0xFF, 0xFE, b'\n']),
            Err(ProtocolError::Utf8 { line: 1 })
        ));
    }

    #[test]
    fn semantic_validation_catches_bad_knobs() {
        let mut job = sample_job("j", "t");
        job.max_iterations = 0;
        assert!(job.validate().is_err());
        let mut job = sample_job("j", "t");
        job.scenario = ScenarioSpec::Synthetic {
            name: "bad".into(),
            options: 10,
            x_star: 11,
            statements: 10,
            tests: 1,
            repair_rate: 0.5,
            world_seed: 1,
            pool_size: None,
        };
        assert!(job.validate().unwrap_err().contains("x_star"));
        let spec = ScenarioSpec::Catalog {
            name: "no-such-bug".into(),
        };
        assert!(spec.validate().unwrap_err().contains("unknown catalog"));
        assert!(ScenarioSpec::Catalog {
            name: "gzip-2009-08-16".into()
        }
        .validate()
        .is_ok());
        let b = BudgetSpec {
            tenant: "t".into(),
            max_evals: None,
            max_ms: None,
        };
        assert!(b.validate().is_err());
    }

    #[test]
    fn budget_exceeded_semantics() {
        let b = BudgetSpec {
            tenant: "t".into(),
            max_evals: Some(10),
            max_ms: Some(100),
        };
        assert!(!b.exceeded(10, 100));
        assert!(b.exceeded(11, 0));
        assert!(b.exceeded(0, 101));
    }

    #[test]
    fn nesting_depth_ignores_strings() {
        assert_eq!(nesting_depth(r#"{"a":"}]]]]"}"#), 1);
        assert_eq!(nesting_depth(r#"{"a":[1,[2]]}"#), 3);
        assert_eq!(nesting_depth(r#""\"[""#), 0);
        assert_eq!(nesting_depth("]]]"), 0);
    }
}
