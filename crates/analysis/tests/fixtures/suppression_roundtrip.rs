// Fixture: the suppression lifecycle — a trailing allow, an own-line allow
// covering the next line, and a stale allow that suppresses nothing (which
// must surface as unused-suppression). Never compiled — token-scanned only.

fn trailing_allow(state: &State) {
    let g = state.inner.lock().unwrap(); // poison = abort is fine here. pp-lint: allow(no-lock-unwrap)
    drop(g);
}

fn own_line_allow(queue: &ShardQueue) {
    // A stale emptiness hint only costs one skipped scan. pp-lint: allow(atomic-ordering)
    let hint = queue.len.load(Ordering::Relaxed);
    let _ = hint;
}

fn stale_allow(state: &State) {
    // pp-lint: allow(lock-order) EXPECT: unused-suppression
    let g = state.inner.lock_or_panic("state");
    drop(g);
}
