// Fixture: L11 dead-metric on a `counters!` set. No report or test calls
// the set's generated `fields()`, so its counters are checked one by one:
// `seen_total` is read by the test below, `dead_total` nowhere.

turbopool_iosim::counters! {
    pub struct FooCounters =>
    pub struct FooSnapshot {
        /// Read by name in the test below.
        seen_total,
        /// Should fire: never observed anywhere.
        dead_total,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn reads_one_counter_by_name() {
        let s = super::FooCounters::default().snapshot();
        assert_eq!(s.seen_total, 0);
    }
}
