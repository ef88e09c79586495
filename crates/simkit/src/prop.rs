//! Compact property-testing harness (in-repo `proptest` replacement).
//!
//! Supplies the narrow feature set the workspace's property tests use:
//! seeded case generation on [`SimRng`], composable [`Strategy`]s (ranges,
//! vectors, tuples, [`Just`], `prop_map`,
//! [`prop_oneof!`](crate::prop_oneof)), bounded shrinking, and the
//! [`props!`](crate::props) declarative macro:
//!
//! ```
//! use iosched_simkit::{prop, props, prop_assert};
//! props! {
//!     #![cases(64)]
//!     fn sum_is_bounded(v in prop::vec(0u64..10, 0..20)) {
//!         prop_assert!(v.iter().sum::<u64>() <= 10 * v.len() as u64);
//!     }
//! }
//! ```
//!
//! Failures panic with the seed, the original failing input and the
//! shrunk minimal input. Reproducibility: generation is seeded from a
//! fixed constant mixed with the test's name, so runs are deterministic;
//! override with `PROP_SEED=<u64>` and `PROP_CASES=<n>` env vars.

use crate::rng::SimRng;
use std::cell::Cell;
use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// Cases per property when the `props!` block doesn't override it.
pub const DEFAULT_CASES: usize = 256;

/// Total extra property evaluations spent shrinking a failure.
const SHRINK_BUDGET: usize = 1000;

/// A generator of test inputs, with optional shrinking toward "smaller"
/// inputs (shrink candidates must be strictly simpler to guarantee
/// termination; the runner additionally bounds total shrink evaluations).
pub trait Strategy {
    type Value: Clone + Debug;

    fn generate(&self, rng: &mut SimRng) -> Self::Value;

    fn shrink(&self, _v: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }

    /// Transform generated values (like proptest's `prop_map`). Mapped
    /// strategies don't shrink: the pre-image of the output isn't kept.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        U: Clone + Debug,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

// ── Integer and float ranges ────────────────────────────────────────────

macro_rules! impl_int_range {
    ($($ty:ty),+) => { $(
        impl Strategy for Range<$ty> {
            type Value = $ty;

            fn generate(&self, rng: &mut SimRng) -> $ty {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (rng.next_u64() as u128).wrapping_mul(span) >> 64;
                (self.start as i128 + off as i128) as $ty
            }

            fn shrink(&self, v: &$ty) -> Vec<$ty> {
                let mut out = Vec::new();
                if *v != self.start {
                    out.push(self.start);
                    let mid =
                        (self.start as i128 + (*v as i128 - self.start as i128) / 2) as $ty;
                    if mid != self.start && mid != *v {
                        out.push(mid);
                    }
                    let dec = *v - 1;
                    if dec != self.start && dec != mid {
                        out.push(dec);
                    }
                }
                out
            }
        }
    )+ };
}

impl_int_range!(u16, u32, u64, usize, i64);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut SimRng) -> f64 {
        rng.uniform_range(self.start, self.end)
    }

    fn shrink(&self, v: &f64) -> Vec<f64> {
        let mut out = Vec::new();
        if *v != self.start {
            out.push(self.start);
            let mid = self.start + (*v - self.start) / 2.0;
            if mid != self.start && mid != *v {
                out.push(mid);
            }
        }
        out
    }
}

// ── Combinators ─────────────────────────────────────────────────────────

/// Always produces a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut SimRng) -> T {
        self.0.clone()
    }
}

/// Result of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    U: Clone + Debug,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut SimRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// `Vec` of values from an element strategy, with length drawn from
/// `len` (like `proptest::collection::vec`). Shrinks by shortening the
/// vector and by shrinking individual elements.
pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
    VecStrategy { elem, len }
}

pub struct VecStrategy<S> {
    elem: S,
    len: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut SimRng) -> Vec<S::Value> {
        let n = self.len.generate(rng);
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, v: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let mut out = Vec::new();
        let min = self.len.start;
        if v.len() > min {
            let half = min.max(v.len() / 2);
            if half < v.len() {
                out.push(v[..half].to_vec());
            }
            for i in 0..v.len() {
                let mut shorter = v.clone();
                shorter.remove(i);
                out.push(shorter);
            }
        }
        for i in 0..v.len() {
            for cand in self.elem.shrink(&v[i]) {
                let mut w = v.clone();
                w[i] = cand;
                out.push(w);
            }
        }
        out
    }
}

/// Type-erased strategy, for heterogeneous lists
/// ([`prop_oneof!`](crate::prop_oneof)).
pub struct Boxed<T>(Box<dyn DynStrategy<T>>);

trait DynStrategy<T> {
    fn generate_dyn(&self, rng: &mut SimRng) -> T;
    fn shrink_dyn(&self, v: &T) -> Vec<T>;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn generate_dyn(&self, rng: &mut SimRng) -> S::Value {
        self.generate(rng)
    }

    fn shrink_dyn(&self, v: &S::Value) -> Vec<S::Value> {
        self.shrink(v)
    }
}

/// Box a strategy for use in a [`Union`].
pub fn boxed<S: Strategy + 'static>(s: S) -> Boxed<S::Value> {
    Boxed(Box::new(s))
}

impl<T: Clone + Debug> Strategy for Boxed<T> {
    type Value = T;

    fn generate(&self, rng: &mut SimRng) -> T {
        self.0.generate_dyn(rng)
    }

    fn shrink(&self, v: &T) -> Vec<T> {
        self.0.shrink_dyn(v)
    }
}

/// Picks one of several strategies uniformly per case (`prop_oneof`).
/// Doesn't shrink: the producing branch isn't tracked per value.
pub struct Union<T>(Vec<Boxed<T>>);

impl<T: Clone + Debug> Union<T> {
    pub fn new(branches: Vec<Boxed<T>>) -> Self {
        assert!(!branches.is_empty(), "union of zero strategies");
        Union(branches)
    }
}

impl<T: Clone + Debug> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut SimRng) -> T {
        let i = rng.index(self.0.len());
        self.0[i].generate(rng)
    }
}

macro_rules! impl_tuple_strategy {
    ($( ($($S:ident / $idx:tt),+) ),+ $(,)?) => { $(
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);

            fn generate(&self, rng: &mut SimRng) -> Self::Value {
                ($( self.$idx.generate(rng), )+)
            }

            fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&v.$idx) {
                        let mut w = v.clone();
                        w.$idx = cand;
                        out.push(w);
                    }
                )+
                out
            }
        }
    )+ };
}

impl_tuple_strategy!(
    (A / 0),
    (A / 0, B / 1),
    (A / 0, B / 1, C / 2),
    (A / 0, B / 1, C / 2, D / 3),
    (A / 0, B / 1, C / 2, D / 3, E / 4),
);

// ── Runner ──────────────────────────────────────────────────────────────

thread_local! {
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

/// The default panic hook prints a backtrace for every caught failure,
/// which would spam hundreds of reports during shrinking. Install (once,
/// process-wide) a wrapper that silences reporting on threads currently
/// inside the property runner.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Run `f` on one input; `None` = pass, `Some(message)` = fail.
fn check<V, F>(f: &F, v: &V) -> Option<String>
where
    V: Clone + Debug,
    F: Fn(V) -> Result<(), String>,
{
    QUIET_PANICS.with(|q| q.set(true));
    let outcome = catch_unwind(AssertUnwindSafe(|| f(v.clone())));
    QUIET_PANICS.with(|q| q.set(false));
    match outcome {
        Ok(Ok(())) => None,
        Ok(Err(msg)) => Some(msg),
        Err(payload) => Some(panic_message(payload)),
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Execute a property: `cases` generated inputs from `strat`, shrinking
/// any failure within a bounded budget, then panicking with a report.
/// This is the target the [`props!`](crate::props) macro expands to; call
/// it directly for programmatic properties.
pub fn run_named<S, F>(name: &str, cases: usize, strat: S, f: F)
where
    S: Strategy,
    F: Fn(S::Value) -> Result<(), String>,
{
    install_quiet_hook();
    let cases = env_u64("PROP_CASES").map(|n| n as usize).unwrap_or(cases);
    // Per-test deterministic seed: a fixed constant mixed with an FNV-1a
    // hash of the test name, so distinct properties explore distinct
    // sequences but every run of one property is identical.
    let seed = env_u64("PROP_SEED").unwrap_or_else(|| {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        h ^ 0x9E37_79B9_7F4A_7C15
    });
    let mut rng = SimRng::from_seed(seed);
    for case in 0..cases {
        let input = strat.generate(&mut rng);
        let Some(first_msg) = check(&f, &input) else {
            continue;
        };

        // Greedy bounded shrink: repeatedly move to the first failing
        // shrink candidate until none fails or the budget runs out.
        let mut minimal = input.clone();
        let mut minimal_msg = first_msg.clone();
        let mut budget = SHRINK_BUDGET;
        'outer: loop {
            for cand in strat.shrink(&minimal) {
                if budget == 0 {
                    break 'outer;
                }
                budget -= 1;
                if let Some(msg) = check(&f, &cand) {
                    minimal = cand;
                    minimal_msg = msg;
                    continue 'outer;
                }
            }
            break;
        }

        panic!(
            "property `{name}` failed at case {case}/{cases} (seed {seed}; \
             rerun with PROP_SEED={seed})\n\
             minimal input: {minimal:?}\n\
             error: {minimal_msg}\n\
             original input: {input:?}\n\
             original error: {first_msg}"
        );
    }
}

// ── Macros ──────────────────────────────────────────────────────────────

/// Define property tests. Each `fn` becomes a `#[test]`; the optional
/// leading `#![cases(N)]` sets the case count for every property in the
/// block (default [`DEFAULT_CASES`]).
#[macro_export]
macro_rules! props {
    ( #![cases($cases:expr)] $($rest:tt)* ) => {
        $crate::__props_impl! { ($cases) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__props_impl! { ($crate::prop::DEFAULT_CASES) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __props_impl {
    ( ($cases:expr) $(
        $(#[$attr:meta])*
        fn $name:ident ( $($arg:pat in $strat:expr),+ $(,)? ) $body:block
    )* ) => { $(
        $(#[$attr])*
        #[test]
        fn $name() {
            $crate::prop::run_named(
                stringify!($name),
                $cases,
                ( $($strat,)+ ),
                |( $($arg,)+ )| { $body ::std::result::Result::Ok(()) },
            );
        }
    )* };
}

/// Assert inside a [`props!`](crate::props) body; failure reports the
/// message and feeds the shrinker (unlike `assert!`, no backtrace
/// machinery).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        // `match` instead of `if !cond` so float comparisons don't trip
        // clippy's neg_cmp_op_on_partial_ord at every call site.
        match $cond {
            true => {}
            false => return ::std::result::Result::Err(format!($($fmt)+)),
        }
    };
}

/// Equality assertion counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: {} == {}\n  left: {l:?}\n right: {r:?}",
            stringify!($left),
            stringify!($right)
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)+);
    }};
}

/// Pick one of several strategies per case (like proptest's
/// `prop_oneof!`). Branches may be heterogeneous strategy types with a
/// common `Value`.
#[macro_export]
macro_rules! prop_oneof {
    ( $($branch:expr),+ $(,)? ) => {
        $crate::prop::Union::new(vec![ $($crate::prop::boxed($branch)),+ ])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_generate_in_bounds() {
        let mut rng = SimRng::from_seed(1);
        for _ in 0..2000 {
            let a = (5u64..17).generate(&mut rng);
            assert!((5..17).contains(&a));
            let b = (-3i64..4).generate(&mut rng);
            assert!((-3..4).contains(&b));
            let c = (0.5f64..2.5).generate(&mut rng);
            assert!((0.5..2.5).contains(&c));
            let d = (0usize..1).generate(&mut rng);
            assert_eq!(d, 0);
        }
    }

    #[test]
    fn vec_respects_length_range() {
        let mut rng = SimRng::from_seed(2);
        for _ in 0..200 {
            let v = vec(0u64..10, 2..7).generate(&mut rng);
            assert!((2..7).contains(&v.len()));
        }
    }

    #[test]
    fn union_draws_every_branch() {
        let s = crate::prop_oneof![Just(1u64), Just(2u64), 10u64..20];
        let mut rng = SimRng::from_seed(3);
        let mut seen = [false; 3];
        for _ in 0..200 {
            match s.generate(&mut rng) {
                1 => seen[0] = true,
                2 => seen[1] = true,
                10..=19 => seen[2] = true,
                other => panic!("out-of-range draw {other}"),
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn map_transforms() {
        let s = (1u64..5).prop_map(|x| x * 100);
        let mut rng = SimRng::from_seed(4);
        for _ in 0..50 {
            let v = s.generate(&mut rng);
            assert!(v % 100 == 0 && (100..500).contains(&v));
        }
    }

    #[test]
    fn shrink_reaches_minimal_counterexample() {
        // Property "all elements < 7" fails; greedy shrink should reduce
        // the witness to a single element at the smallest failing value.
        let strat = vec(0u64..20, 0..30);
        let mut rng = SimRng::from_seed(5);
        let failing = loop {
            let v = strat.generate(&mut rng);
            if v.iter().any(|&x| x >= 7) {
                break v;
            }
        };
        let f = |v: Vec<u64>| -> Result<(), String> {
            if v.iter().all(|&x| x < 7) {
                Ok(())
            } else {
                Err("element too large".into())
            }
        };
        let mut minimal = failing;
        let mut budget = SHRINK_BUDGET;
        'outer: loop {
            for cand in strat.shrink(&minimal) {
                if budget == 0 {
                    break 'outer;
                }
                budget -= 1;
                if f(cand.clone()).is_err() {
                    minimal = cand;
                    continue 'outer;
                }
            }
            break;
        }
        assert_eq!(minimal, std::vec![7]);
    }

    #[test]
    fn runner_is_deterministic_per_name() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SUM_A: AtomicU64 = AtomicU64::new(0);
        static SUM_B: AtomicU64 = AtomicU64::new(0);
        run_named("det_check", 50, (0u64..1000,), |(x,)| {
            SUM_A.fetch_add(x, Ordering::Relaxed);
            Ok(())
        });
        run_named("det_check", 50, (0u64..1000,), |(x,)| {
            SUM_B.fetch_add(x, Ordering::Relaxed);
            Ok(())
        });
        let (a, b) = (SUM_A.load(Ordering::Relaxed), SUM_B.load(Ordering::Relaxed));
        assert_eq!(a, b);
        assert!(a > 0);
    }

    #[test]
    fn failing_property_panics_with_report() {
        let outcome = std::panic::catch_unwind(|| {
            run_named("always_fails", 10, (0u64..100,), |(x,)| {
                crate::prop_assert!(x > 1000, "x was {x}");
                Ok(())
            });
        });
        let msg = panic_message(outcome.expect_err("property should fail"));
        assert!(msg.contains("always_fails"), "{msg}");
        assert!(msg.contains("minimal input: (0,)"), "{msg}");
    }

    props! {
        #![cases(32)]

        fn macro_smoke(x in 0u64..50, v in vec(0.0f64..1.0, 0..5)) {
            crate::prop_assert!(x < 50);
            crate::prop_assert_eq!(v.len(), v.len());
            for e in &v {
                crate::prop_assert!((0.0..1.0).contains(e), "bad element {e}");
            }
        }

        fn macro_supports_mut_bindings(mut v in vec(0u64..9, 1..6)) {
            v.sort_unstable();
            crate::prop_assert!(v.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
