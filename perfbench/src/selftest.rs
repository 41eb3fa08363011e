//! Checks of the benchmark itself, on small sizes: the correctness gate
//! must catch a damaged log and a silently lost commit, and the
//! fingerprint must follow the seed. `tests/gate.rs` runs them.

use crate::episode::{self, Episode, Opts, Restarts, Tamper, DIGEST_DIFFERS};
use crate::report;
use crate::spec::Workload;

const ONE_RESTART: Restarts = Restarts {
    min: 1,
    max: 1,
    min_secs: 0.0,
};

fn tiny(w: Workload, seed: u64, traced: bool, tamper: Tamper) -> Episode {
    episode::run(
        w,
        w.tiny(),
        seed,
        Opts {
            traced,
            restarts: ONE_RESTART,
            tamper,
        },
    )
}

/// The gate must fail `e` and count all of its ops as failed.
fn failed_whole(w: Workload, e: &Episode, what: &str) -> Result<(), String> {
    let (failed, correct) = report::outcome(&e.failures, e.ops);
    if correct || failed != e.ops || e.ops == 0 {
        return Err(format!(
            "{}: {what} passed the gate ({} ops, {failed} failed)",
            w.name(),
            e.ops
        ));
    }
    Ok(())
}

/// A byte flipped in the middle of the durable log before restart must
/// fail the gate, and the run must count all of its ops as failed.
pub fn corrupted_log_fails_gate(w: Workload) -> Result<(), String> {
    failed_whole(w, &tiny(w, 7, false, Tamper::MidLog), "corrupted log")
}

/// A last commit lost as a torn tail leaves recovery undamaged and the
/// audit clean, so the digest comparison alone must fail the run.
pub fn lost_commit_fails_on_digest(w: Workload) -> Result<(), String> {
    let e = tiny(w, 7, false, Tamper::TearLastCommit);
    if e.recovery.is_none_or(|r| r.is_damaged()) {
        return Err(format!("{}: recovery did not pass undamaged", w.name()));
    }
    if e.failures != [DIGEST_DIFFERS] {
        return Err(format!(
            "{}: lost commit gave failures {:?}, not only the digest's",
            w.name(),
            e.failures
        ));
    }
    failed_whole(w, &e, "lost commit")
}

/// Same seed, same fingerprint (traced or not); another seed, another
/// fingerprint; and every one of these runs passes the gate.
pub fn fingerprint_follows_seed(w: Workload) -> Result<(), String> {
    let a = tiny(w, 1, false, Tamper::None);
    let b = tiny(w, 1, true, Tamper::None);
    let c = tiny(w, 2, false, Tamper::None);
    for (label, e) in [("seed 1", &a), ("seed 1 traced", &b), ("seed 2", &c)] {
        if !e.failures.is_empty() {
            return Err(format!("{} {label}: {:?}", w.name(), e.failures));
        }
    }
    if a.fingerprint != b.fingerprint {
        return Err(format!("{}: traced run changed the fingerprint", w.name()));
    }
    if a.fingerprint == c.fingerprint {
        return Err(format!("{}: seeds 1 and 2 gave one fingerprint", w.name()));
    }
    Ok(())
}
