// Fixture: unsafe blocks with a SAFETY comment above them, and unsafe
// items that are not blocks, which must NOT trip unsafe-needs-safety. Never
// compiled — token-scanned only.

fn explained(p: *const u8) -> u8 {
    // SAFETY: the caller passes a pointer to a live byte.
    unsafe { *p }
}

fn attribute_between(body: impl FnOnce()) {
    // SAFETY: the guard above established the CPU feature `with_avx2`
    // requires; what it runs is the safe `body`.
    #[allow(unsafe_code)]
    unsafe {
        with_avx2(body);
    }
}

fn statement_lead_in(p: *const u8) -> u8 {
    // SAFETY: as above; the comment sits above the `let`, not the keyword.
    let b = unsafe { *p };
    b
}

// Declarations are not blocks: their obligations are the caller's.
unsafe fn raw_read(p: *const u8) -> u8 {
    // SAFETY: forwarded from this function's own contract.
    unsafe { *p }
}

unsafe impl Send for Handle {}
