// Fixture: Relaxed orderings on cross-thread protocol atomics (shutdown,
// claimed, stop, len). Never compiled — token-scanned only.

fn protocol_relaxed(shared: &Shared, queue: &ShardQueue) {
    shared.shutdown.store(true, Ordering::Relaxed); // EXPECT: atomic-ordering
    let c = queue.len.load(Ordering::Relaxed); // EXPECT: atomic-ordering
    let _ = c;
    if queue
        .claimed
        .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed) // EXPECT: atomic-ordering
        .is_ok()
    {
        queue.len.store(0, Ordering::Relaxed); // EXPECT: atomic-ordering
    }
}

fn stop_flag(stop: &AtomicBool) {
    while !stop.load(Ordering::Relaxed) { // EXPECT: atomic-ordering
        work();
    }
}
