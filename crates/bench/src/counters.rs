//! Counter set → JSON.
//!
//! Every counter set the simulation exposes is declared once with
//! `turbopool_iosim::counters!`, which generates `fields()`: each counter
//! as `(name, value)`, in declaration order. A report emits a whole set
//! with `counters_json(Set::fields(&snapshot))`, so a counter added to its
//! set reaches every report that emits the set, with no list here to keep
//! in step. Naming the set in the call (`Set::fields`) is also what lets
//! the L11 `dead-metric` lint see that the set is observed.

use crate::json::Json;

/// One JSON object with a key per counter, in the order given.
pub fn counters_json(fields: impl IntoIterator<Item = (&'static str, u64)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), Json::Int(v)))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbopool_bufpool::{ClassifierStats, PolicyStats, PoolStats};
    use turbopool_core::metrics::SsdMetricsSnapshot;
    use turbopool_iosim::FaultStats;

    fn keys(j: &Json) -> Vec<String> {
        match j {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
            _ => panic!("emitter must produce an object"),
        }
    }

    #[test]
    fn ssd_metrics_emitter_is_field_complete() {
        let j = counters_json(SsdMetricsSnapshot::fields(&Default::default()));
        let ks = keys(&j);
        assert_eq!(ks.len(), 33, "one JSON key per SsdMetrics counter");
        for probe in [
            "throttled_reads",
            "ssd_retries",
            "cleaner_boosts",
            "warm_rejected_stale",
            "warm_rejected_checksum",
            "admission_ghost_hits",
        ] {
            assert!(ks.iter().any(|k| k == probe), "missing {probe}");
        }
    }

    #[test]
    fn policy_stats_emitter_is_field_complete() {
        let p = keys(&counters_json(PolicyStats::fields(&Default::default())));
        assert_eq!(p.len(), 5);
        for probe in ["ghost_hits", "scan_steps", "second_chances"] {
            assert!(p.iter().any(|k| k == probe), "missing {probe}");
        }
    }

    #[test]
    fn pool_and_fault_emitters_cover_every_field() {
        let p = keys(&counters_json(PoolStats::fields(&Default::default())));
        assert_eq!(p.len(), 8);
        assert!(p.iter().any(|k| k == "checkpoint_writes"));
        assert!(p.iter().any(|k| k == "shard_acquisitions"));
        let f = keys(&counters_json(FaultStats::fields(&Default::default())));
        assert_eq!(f.len(), 7);
        for probe in ["write_errors", "torn_writes", "bitflips"] {
            assert!(f.iter().any(|k| k == probe), "missing {probe}");
        }
        let c = keys(&counters_json(ClassifierStats::fields(&Default::default())));
        assert_eq!(c.len(), 4);
    }
}
