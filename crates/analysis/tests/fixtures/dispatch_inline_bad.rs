// Fixture: closures handed to the kernel dispatch that the compiler may
// leave out of line. Never compiled — token-scanned only.

fn no_attribute(xs: &mut [f32]) {
    dispatch(|_| xs.iter_mut().for_each(|x| *x = exp(*x))); // EXPECT: dispatch-inline
}

fn a_hint_is_not_enough(out: &mut [f32], a: &[f32], w: &[f32], n: usize) {
    dispatch(
        #[inline]
        |isa| gemm_on(isa, out, a, w, n), // EXPECT: dispatch-inline
    );
}

fn move_closure_on_a_named_isa(isa: Isa, xs: &mut [f32]) {
    dispatch_to(isa, move || scale(xs)); // EXPECT: dispatch-inline
}

fn qualified_path(xs: &mut [f32]) {
    crate::kernel::dispatch(
        #[allow(clippy::redundant_closure)]
        |_| tanh_all(xs), // EXPECT: dispatch-inline
    );
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_are_not_exempt() {
        for isa in Isa::under_test("gather") {
            dispatch_to(isa, |_| gather_body(&mut got, &x, &w, n)); // EXPECT: dispatch-inline
        }
    }
}
