//! Field-complete counter → JSON emitters.
//!
//! Every counter struct the simulation exposes is mirrored here field by
//! field, so each counter is observable in at least one bench report —
//! the property the L11 `dead-metric` lint enforces. Each emitter
//! *exhaustively destructures* its struct: adding a counter without
//! extending the report is a compile error, not silent observability
//! rot.

use turbopool_bufpool::{ClassifierStats, PolicyStats, PoolStats};
use turbopool_core::metrics::SsdMetricsSnapshot;
use turbopool_iosim::FaultStats;

use crate::json::Json;

fn obj(fields: Vec<(&str, u64)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), Json::Int(v)))
            .collect(),
    )
}

/// Every SSD-manager counter as one JSON object.
pub fn ssd_metrics_json(s: &SsdMetricsSnapshot) -> Json {
    let SsdMetricsSnapshot {
        ssd_hits,
        ssd_misses,
        throttled_reads,
        throttled_admissions,
        admissions,
        fill_admissions,
        policy_rejections,
        admission_ghost_hits,
        replacements,
        invalidations,
        cleaned_pages,
        cleaner_writes,
        inline_cleans,
        checkpoint_cleaned,
        tac_cancelled_writes,
        dirty_hits,
        warm_imports,
        warm_rejected_stale,
        warm_rejected_checksum,
        audit_violations,
        ssd_io_errors,
        checksum_misses,
        disk_retries,
        ssd_quarantined,
        quarantined_reads,
        lost_frames,
        stranded_dirty,
        salvaged_pages,
        hedged_reads,
        hedged_admissions,
        ssd_retries,
        cleaner_backoffs,
        cleaner_boosts,
    } = *s;
    obj(vec![
        ("ssd_hits", ssd_hits),
        ("ssd_misses", ssd_misses),
        ("throttled_reads", throttled_reads),
        ("throttled_admissions", throttled_admissions),
        ("admissions", admissions),
        ("fill_admissions", fill_admissions),
        ("policy_rejections", policy_rejections),
        ("admission_ghost_hits", admission_ghost_hits),
        ("replacements", replacements),
        ("invalidations", invalidations),
        ("cleaned_pages", cleaned_pages),
        ("cleaner_writes", cleaner_writes),
        ("inline_cleans", inline_cleans),
        ("checkpoint_cleaned", checkpoint_cleaned),
        ("tac_cancelled_writes", tac_cancelled_writes),
        ("dirty_hits", dirty_hits),
        ("warm_imports", warm_imports),
        ("warm_rejected_stale", warm_rejected_stale),
        ("warm_rejected_checksum", warm_rejected_checksum),
        ("audit_violations", audit_violations),
        ("ssd_io_errors", ssd_io_errors),
        ("checksum_misses", checksum_misses),
        ("disk_retries", disk_retries),
        ("ssd_quarantined", ssd_quarantined),
        ("quarantined_reads", quarantined_reads),
        ("lost_frames", lost_frames),
        ("stranded_dirty", stranded_dirty),
        ("salvaged_pages", salvaged_pages),
        ("hedged_reads", hedged_reads),
        ("hedged_admissions", hedged_admissions),
        ("ssd_retries", ssd_retries),
        ("cleaner_backoffs", cleaner_backoffs),
        ("cleaner_boosts", cleaner_boosts),
    ])
}

/// Every buffer-pool counter as one JSON object.
pub fn pool_stats_json(s: &PoolStats) -> Json {
    let PoolStats {
        hits,
        misses,
        evictions_clean,
        evictions_dirty,
        prefetched_pages,
        expanded_fill_pages,
        checkpoint_writes,
        shard_acquisitions,
    } = *s;
    obj(vec![
        ("hits", hits),
        ("misses", misses),
        ("evictions_clean", evictions_clean),
        ("evictions_dirty", evictions_dirty),
        ("prefetched_pages", prefetched_pages),
        ("expanded_fill_pages", expanded_fill_pages),
        ("checkpoint_writes", checkpoint_writes),
        ("shard_acquisitions", shard_acquisitions),
    ])
}

/// Every replacement-policy counter as one JSON object.
pub fn policy_stats_json(s: &PolicyStats) -> Json {
    let PolicyStats {
        ghost_hits,
        scan_steps,
        second_chances,
        probation_evictions,
        protected_evictions,
    } = *s;
    obj(vec![
        ("ghost_hits", ghost_hits),
        ("scan_steps", scan_steps),
        ("second_chances", second_chances),
        ("probation_evictions", probation_evictions),
        ("protected_evictions", protected_evictions),
    ])
}

/// Every fault-injection counter as one JSON object.
pub fn fault_stats_json(s: &FaultStats) -> Json {
    let FaultStats {
        read_errors,
        write_errors,
        latency_spikes,
        torn_writes,
        bitflips,
        dead_rejects,
        brownout_slowdowns,
    } = *s;
    obj(vec![
        ("read_errors", read_errors),
        ("write_errors", write_errors),
        ("latency_spikes", latency_spikes),
        ("torn_writes", torn_writes),
        ("bitflips", bitflips),
        ("dead_rejects", dead_rejects),
        ("brownout_slowdowns", brownout_slowdowns),
    ])
}

/// The classifier confusion matrix as one JSON object.
pub fn classifier_stats_json(s: &ClassifierStats) -> Json {
    let ClassifierStats {
        seq_as_seq,
        seq_as_rand,
        rand_as_seq,
        rand_as_rand,
    } = *s;
    obj(vec![
        ("seq_as_seq", seq_as_seq),
        ("seq_as_rand", seq_as_rand),
        ("rand_as_seq", rand_as_seq),
        ("rand_as_rand", rand_as_rand),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(j: &Json) -> Vec<String> {
        match j {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
            _ => panic!("emitter must produce an object"),
        }
    }

    #[test]
    fn ssd_metrics_emitter_is_field_complete() {
        let j = ssd_metrics_json(&SsdMetricsSnapshot::default());
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
        let p = keys(&policy_stats_json(&PolicyStats::default()));
        assert_eq!(p.len(), 5);
        for probe in ["ghost_hits", "scan_steps", "second_chances"] {
            assert!(p.iter().any(|k| k == probe), "missing {probe}");
        }
    }

    #[test]
    fn pool_and_fault_emitters_cover_every_field() {
        let p = keys(&pool_stats_json(&PoolStats::default()));
        assert_eq!(p.len(), 8);
        assert!(p.iter().any(|k| k == "checkpoint_writes"));
        assert!(p.iter().any(|k| k == "shard_acquisitions"));
        let f = keys(&fault_stats_json(&FaultStats::default()));
        assert_eq!(f.len(), 7);
        for probe in ["write_errors", "torn_writes", "bitflips"] {
            assert!(f.iter().any(|k| k == probe), "missing {probe}");
        }
        let c = keys(&classifier_stats_json(&ClassifierStats::default()));
        assert_eq!(c.len(), 4);
    }
}
