// Fixture: unsafe blocks with no SAFETY comment directly above them. Never
// compiled — token-scanned only.

fn unexplained(p: *const u8) -> u8 {
    unsafe { *p } // EXPECT: unsafe-needs-safety
}

fn allow_is_not_a_reason() {
    #[allow(unsafe_code)]
    unsafe { // EXPECT: unsafe-needs-safety
        ffi_call();
    }
}

fn comment_without_the_tag(p: *const u8) -> u8 {
    // Reads the byte.
    let b = unsafe { *p }; // EXPECT: unsafe-needs-safety
    b
}

fn separated_by_code(p: *const u8) -> u8 {
    // SAFETY: this explains the line below, not the block after it.
    let q = p;
    unsafe { *q } // EXPECT: unsafe-needs-safety
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_are_not_exempt() {
        let x = 1u8;
        let v = unsafe { *(&x as *const u8) }; // EXPECT: unsafe-needs-safety
        assert_eq!(v, 1);
    }
}
