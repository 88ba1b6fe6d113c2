//! Integration tests: the fixture corpus pins each rule family's
//! behaviour (`file:line` exactness, negatives, the allow escape hatch),
//! and `workspace_is_clean` wires the linter into tier-1 `cargo test`.

use std::path::Path;

use threev_lint::{find_root, lint_source, lint_workspace, Finding};

fn fixture(name: &str) -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

/// `(rule, line)` pairs, sorted — the shape every assertion below uses.
fn shape(findings: &[Finding]) -> Vec<(&'static str, u32)> {
    findings.iter().map(|f| (f.rule, f.line)).collect()
}

/// The linter runs over the real tree as part of `cargo test -q`: the
/// workspace must stay clean, with every suppression reasoned.
#[test]
fn workspace_is_clean() {
    let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above CARGO_MANIFEST_DIR");
    let findings = lint_workspace(&root).expect("workspace lint runs");
    assert!(
        findings.is_empty(),
        "threev-lint found {} violation(s):\n{}",
        findings.len(),
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn determinism_fires_with_exact_lines() {
    let src = fixture("bad_determinism.rs");
    let findings = lint_source("model", "crates/model/src/bad.rs", &src);
    assert_eq!(
        shape(&findings),
        vec![
            ("determinism", 3),
            ("determinism", 5),
            ("determinism", 6),
            ("determinism", 10),
        ],
        "{findings:#?}"
    );
    // The same file inside a non-deterministic crate is out of scope.
    let exempt = lint_source("bench", "crates/bench/src/bad.rs", &src);
    assert!(exempt.is_empty(), "{exempt:#?}");
}

#[test]
fn counter_monotonicity_fires_on_stray_callsites() {
    let src = fixture("bad_counters.rs");
    let findings = lint_source("core", "crates/core/src/poll.rs", &src);
    assert_eq!(
        shape(&findings),
        vec![("counter-monotonicity", 5), ("counter-monotonicity", 9)],
        "{findings:#?}"
    );
    // The sanctioned call sites may increment — but the flow rules take
    // over there (an increment still needs its write-ahead record and a
    // discharge before exit), and the struct-literal back door stays
    // closed even for them.
    let sanctioned = lint_source("core", "crates/core/src/node/gc.rs", &src);
    assert_eq!(
        shape(&sanctioned),
        vec![
            ("counter-balance", 5),
            ("wal-hook-coverage", 5),
            ("counter-monotonicity", 9),
        ],
        "{sanctioned:#?}"
    );
}

#[test]
fn counter_monotonicity_fires_inside_the_impl() {
    let src = fixture("bad_counters_impl.rs");
    let findings = lint_source("core", "crates/core/src/counters.rs", &src);
    assert_eq!(
        shape(&findings),
        vec![
            ("counter-monotonicity", 7),  // pub map field
            ("counter-monotonicity", 11), // fn reset_*
            ("counter-monotonicity", 12), // literal decrement
        ],
        "{findings:#?}"
    );
}

#[test]
fn wal_hook_coverage_fires_on_unlogged_mutations() {
    let src = fixture("bad_wal_hook.rs");
    let findings = lint_source("core", "crates/core/src/node/exec.rs", &src);
    assert_eq!(
        shape(&findings),
        vec![
            ("counter-balance", 7), // the unlogged inc_request is also undischarged
            ("wal-hook-coverage", 7),
            ("wal-hook-coverage", 11),
        ],
        "{findings:#?}"
    );
    // Outside the node engine the rule does not apply.
    let exempt = lint_source("core", "crates/core/src/advance.rs", &src);
    assert!(
        !exempt.iter().any(|f| f.rule == "wal-hook-coverage"),
        "{exempt:#?}"
    );
}

#[test]
fn panic_hygiene_fires_but_asserts_pass() {
    let src = fixture("bad_panic.rs");
    let findings = lint_source("core", "crates/core/src/msg.rs", &src);
    assert_eq!(
        shape(&findings),
        vec![
            ("panic-hygiene", 4),
            ("panic-hygiene", 5),
            ("panic-hygiene", 8),
            ("panic-hygiene", 9),
        ],
        "{findings:#?}"
    );
}

#[test]
fn unsafe_forbid_fires_on_crate_roots() {
    let src = fixture("bad_unsafe.rs");
    let findings = lint_source("model", "crates/model/src/lib.rs", &src);
    assert_eq!(
        shape(&findings),
        vec![
            ("unsafe-forbid", 1), // missing #![forbid(unsafe_code)]
            ("unsafe-forbid", 6), // the unsafe block itself
        ],
        "{findings:#?}"
    );
}

/// The `shard` crate sits in the deterministic tier: its shuttle replays
/// recorded cross-partition schedules, so wall clocks, hash iteration
/// order, and panics are all policy violations there — while the same
/// source inside the (non-deterministic) threaded runtime is out of scope.
#[test]
fn shard_policy_holds_the_deterministic_tier() {
    let src = fixture("bad_shard.rs");
    let findings = lint_source("shard", "crates/shard/src/cluster.rs", &src);
    assert_eq!(
        shape(&findings),
        vec![
            ("determinism", 3),   // HashMap import
            ("determinism", 5),   // HashMap in a signature
            ("panic-hygiene", 6), // .unwrap()
            ("determinism", 9),   // Instant in a signature
            ("determinism", 10),  // Instant::now()
        ],
        "{findings:#?}"
    );
    let exempt = lint_source("runtime", "crates/runtime/src/bad.rs", &src);
    assert!(exempt.is_empty(), "{exempt:#?}");
}

/// The `storage` crate is in the deterministic tier, and the paged
/// backend keeps it there: order-random maps, wall-clock stamps, and bare
/// `.unwrap()` on page I/O must all fire. Non-deterministic tiers (e.g.
/// `bench`) stay exempt from the determinism half.
#[test]
fn storage_backend_holds_the_deterministic_tier() {
    let src = fixture("bad_storage_backend.rs");
    let findings = lint_source("storage", "crates/storage/src/paged.rs", &src);
    assert_eq!(
        shape(&findings),
        vec![
            ("determinism", 6),    // HashMap import
            ("determinism", 9),    // HashMap as the page map
            ("determinism", 14),   // SystemTime wall clock
            ("panic-hygiene", 17), // bare .unwrap() on page I/O
        ],
        "{findings:#?}"
    );
    let exempt = lint_source("bench", "crates/bench/src/bad.rs", &src);
    assert!(
        shape(&exempt)
            .iter()
            .all(|(rule, _)| *rule == "panic-hygiene"),
        "bench is exempt from determinism, not panic-hygiene: {exempt:#?}"
    );
}

/// The `server` crate fronts sockets, so wall clocks and hash maps are
/// its business — the determinism family must stay silent. But a panic
/// in a worker thread kills a connection (or the engine), so the
/// panic-hygiene family applies in full: `.unwrap()`, `panic!`, and
/// `unreachable!` all fire. The same source under the `runtime` policy
/// (no panic hygiene) produces nothing.
#[test]
fn server_policy_keeps_panic_hygiene_without_determinism() {
    let src = fixture("bad_server.rs");
    let findings = lint_source("server", "crates/server/src/server.rs", &src);
    assert_eq!(
        shape(&findings),
        vec![
            ("panic-hygiene", 10), // .unwrap() on the route map
            ("panic-hygiene", 16), // panic! on a missing frame
            ("panic-hygiene", 22), // unreachable! in negotiation
        ],
        "{findings:#?}"
    );
    let exempt = lint_source("runtime", "crates/runtime/src/bad.rs", &src);
    assert!(exempt.is_empty(), "{exempt:#?}");
}

/// Node-engine code is held to every family at once: determinism
/// (order-random routing maps, wall clocks), panic hygiene (unwrap on a
/// lookup), and WAL-hook coverage (an unlogged version switch) — while
/// pure hash routing stays silent.
#[test]
fn engine_fixture_holds_the_engine_policies() {
    let src = fixture("bad_engine.rs");
    let findings = lint_source("core", "crates/core/src/node/exec.rs", &src);
    assert_eq!(
        shape(&findings),
        vec![
            ("determinism", 6),        // HashMap import
            ("determinism", 9),        // HashMap routing table in a signature
            ("panic-hygiene", 10),     // .unwrap() on the lookup
            ("determinism", 13),       // Instant in a signature
            ("determinism", 14),       // Instant::now()
            ("wal-hook-coverage", 18), // version switch with no WAL hook
        ],
        "{findings:#?}"
    );
    // The same source in the threaded runtime is out of every family's
    // scope.
    let exempt = lint_source("runtime", "crates/runtime/src/bad.rs", &src);
    assert!(exempt.is_empty(), "{exempt:#?}");
}

/// The v2 WAL rule is branch-sensitive: a hook on one arm of an `if`
/// does not cover the join below it; hooks on every arm do.
#[test]
fn wal_coverage_is_branch_sensitive() {
    let src = fixture("bad_wal_branch.rs");
    let findings = lint_source("core", "crates/core/src/node/exec.rs", &src);
    assert_eq!(
        shape(&findings),
        vec![("wal-hook-coverage", 9)],
        "{findings:#?}"
    );
}

/// `counter-balance`: an `inc_request` left open on *some* path to a
/// function exit fires; discharge via completion, job execution, or the
/// NC-gate handoff on every path does not.
#[test]
fn counter_balance_fires_on_the_leaky_path_only() {
    let src = fixture("bad_counter_balance.rs");
    let findings = lint_source("core", "crates/core/src/node/exec.rs", &src);
    assert_eq!(
        shape(&findings),
        vec![("counter-balance", 7)],
        "{findings:#?}"
    );
    // Outside the node engine the flow rules do not apply.
    let exempt = lint_source("core", "crates/core/src/advance.rs", &src);
    assert!(
        !exempt.iter().any(|f| f.rule == "counter-balance"),
        "{exempt:#?}"
    );
}

/// `lock-discipline`: grants dropped on an early-return path, and an
/// acquire whose function never journals a `LockAcquire`.
#[test]
fn lock_discipline_flags_dropped_grants_and_unjournaled_acquires() {
    let src = fixture("bad_lock.rs");
    let findings = lint_source("core", "crates/core/src/node/exec.rs", &src);
    assert_eq!(
        shape(&findings),
        vec![("lock-discipline", 7), ("lock-discipline", 22)],
        "{findings:#?}"
    );
}

/// The transitive half of panic-hygiene: a protocol-crate fn calling a
/// helper crate whose callee can unwrap is flagged at the call site, with
/// the full chain and the panic's file:line in the message.
#[test]
fn transitive_panic_chain_crosses_crates() {
    use threev_lint::{lint_files, Options, SourceFile};
    let core_src = "\
fn drive(x: u64) -> u64 {
    render_row(x)
}
";
    let bench_src = "\
pub fn render_row(x: u64) -> u64 {
    inner(x)
}

fn inner(x: u64) -> u64 {
    x.checked_mul(2).unwrap()
}
";
    let files = [
        SourceFile {
            crate_name: "core".into(),
            rel_path: "crates/core/src/drive.rs".into(),
            src: core_src.into(),
        },
        SourceFile {
            crate_name: "bench".into(),
            rel_path: "crates/bench/src/report.rs".into(),
            src: bench_src.into(),
        },
    ];
    let findings = lint_files(&files, None, &Options::default());
    assert_eq!(
        shape(&findings),
        vec![("panic-hygiene", 2)],
        "{findings:#?}"
    );
    let f = &findings[0];
    assert_eq!(f.file, "crates/core/src/drive.rs");
    assert!(
        f.msg
            .contains("core::drive -> bench::render_row -> bench::inner"),
        "{}",
        f.msg
    );
    assert!(f.msg.contains("crates/bench/src/report.rs:6"), "{}", f.msg);
}

/// PR 9 enrolled `analysis` in the full deterministic tier: the auditor
/// is an oracle, so hash iteration order and unwraps are violations.
#[test]
fn analysis_policy_holds_the_deterministic_tier() {
    let src = fixture("bad_analysis.rs");
    let findings = lint_source("analysis", "crates/analysis/src/audit.rs", &src);
    assert_eq!(
        shape(&findings),
        vec![
            ("determinism", 5),    // HashMap import
            ("determinism", 7),    // HashMap in the signature
            ("determinism", 8),    // HashMap::new()
            ("panic-hygiene", 10), // .unwrap() mid-audit
        ],
        "{findings:#?}"
    );
}

/// Workload generators feed the deterministic simulator: unseeded RNGs
/// and wall clocks break seed-reproducibility, so the tier applies.
#[test]
fn workload_policy_holds_the_deterministic_tier() {
    let src = fixture("bad_workload.rs");
    let findings = lint_source("workload", "crates/workload/src/arrivals.rs", &src);
    assert_eq!(
        shape(&findings),
        vec![
            ("determinism", 5),    // Instant import
            ("determinism", 8),    // Instant::now()
            ("determinism", 9),    // thread_rng()
            ("panic-hygiene", 10), // .unwrap() in the generator
        ],
        "{findings:#?}"
    );
    // The same source under the bench policy produces nothing at all.
    let exempt = lint_source("bench", "crates/bench/src/bad.rs", &src);
    assert!(exempt.is_empty(), "{exempt:#?}");
}

#[test]
fn clean_fixture_produces_no_findings() {
    let src = fixture("clean.rs");
    let findings = lint_source("core", "crates/core/src/window.rs", &src);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn allow_escape_hatch_suppresses_and_reports_misuse() {
    let src = fixture("allows.rs");
    let findings = lint_source("model", "crates/model/src/allows.rs", &src);
    assert_eq!(
        shape(&findings),
        vec![
            ("unused-allow", 9),  // allow that suppresses nothing
            ("allow-syntax", 14), // blanket allow with no rule/reason
            ("allow-syntax", 19), // unknown rule id
            ("determinism", 24),  // outside the window: still reported
            ("determinism", 25),
        ],
        "{findings:#?}"
    );
    // The reasoned allow on line 5 swallowed the line-7 HashMap import.
    assert!(!findings.iter().any(|f| f.line == 7), "{findings:#?}");
}
