// Fixture: orderings that must NOT trip atomic-ordering — stat counters
// stay Relaxed, protocol atomics already Acquire/Release/SeqCst, annotated
// deliberate Relaxed, and test code. Never compiled — token-scanned only.

fn stat_counters(shared: &Shared) {
    // Not in the protocol table: monotonic stat counters are fine Relaxed.
    shared.predictions.fetch_add(1, Ordering::Relaxed);
    shared.idle_ns.fetch_add(5, Ordering::Relaxed);
    let _ = shared.batches.load(Ordering::Relaxed);
}

fn protocol_strong(shared: &Shared, queue: &ShardQueue) {
    shared.shutdown.store(true, Ordering::SeqCst);
    let _ = queue.len.load(Ordering::Acquire);
    queue.len.store(0, Ordering::Release);
}

fn deliberate_relaxed(queue: &ShardQueue) {
    // A stale emptiness hint only costs a skipped scan. pp-lint: allow(atomic-ordering)
    let hint = queue.len.load(Ordering::Relaxed);
    let _ = hint;
}

#[cfg(test)]
mod tests {
    #[test]
    fn relaxed_is_fine_in_tests() {
        SHUTDOWN.store(true, Ordering::Relaxed);
    }
}
