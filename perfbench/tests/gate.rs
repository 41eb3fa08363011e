use perfbench::selftest;
use perfbench::spec::Workload;

#[test]
fn corrupted_log_fails_the_gate_on_every_workload() {
    for w in Workload::ALL {
        selftest::corrupted_log_fails_gate(w).unwrap();
    }
}

#[test]
fn lost_commit_fails_the_digest_check_on_every_workload() {
    for w in Workload::ALL {
        selftest::lost_commit_fails_on_digest(w).unwrap();
    }
}

#[test]
fn fingerprint_follows_the_seed_on_every_workload() {
    for w in Workload::ALL {
        selftest::fingerprint_follows_seed(w).unwrap();
    }
}
