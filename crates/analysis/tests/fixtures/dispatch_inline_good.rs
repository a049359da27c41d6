// Fixture: dispatch calls whose closures are compiled into every
// instantiation, and calls the rule leaves alone. Never compiled —
// token-scanned only.

use crate::kernel::{dispatch, dispatch_to};

pub(crate) fn dispatch(body: impl FnOnce(Isa)) {
    // Forwarding a generic body is not a closure literal.
    dispatch_to(Isa::best(), body);
}

fn inlined(xs: &mut [f32]) {
    dispatch(
        #[inline(always)]
        |_| xs.iter_mut().for_each(|x| *x = sigmoid(*x)),
    );
}

fn inlined_move_among_other_attributes(isa: Isa, xs: &mut [f32]) {
    dispatch_to(
        isa,
        #[allow(clippy::redundant_closure)]
        #[inline(always)]
        move |_| scale(xs),
    );
}

fn closures_elsewhere_are_not_checked(xs: &mut [f32], engine: &Engine) {
    xs.iter_mut().for_each(|x| *x *= 2.0);
    engine.dispatch(|job| job.run());
}
