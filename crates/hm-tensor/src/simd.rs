//! The host's widest vector unit, detected once, and the dispatch of the
//! kernels that have a wider path.
//!
//! Every wider path computes the bits of the narrower one. A kernel is
//! cloned for a wider unit only when each output element still sees the
//! same operations in the same order (DESIGN.md §7b):
//! - element-wise loops (`y[j] += a * x[j]`, an f64 fold per element), which
//!   [`elementwise!`] compiles for the baseline and for AVX2;
//! - the forward kernel `ops::matmul_transb_into`, whose wider paths keep
//!   each output's four-lane recurrence and only pack more input rows into
//!   one register;
//! - the AVX-512 backward register tile of `ops`, which gives each output
//!   the skipping loop's additions in its order.
//!
//! A reduction across elements is never cloned: its order is part of its
//! bits. No path fuses a multiply and an add; the clones enable AVX2, but
//! Rust never contracts `a * b + c` into a fused multiply-add.

use std::sync::OnceLock;

/// Vector instruction levels, narrowest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) enum Isa {
    /// Scalar code, compiled on every target: the forward kernel is one
    /// `dot_f32` per output.
    Portable,
    /// 128-bit lanes, the x86_64 baseline.
    Sse2,
    /// 256-bit lanes (AVX2).
    Avx,
    /// 512-bit lanes (AVX-512F).
    Avx512,
}

/// A level this host runs. Only [`host`] and [`levels`] make one, so a
/// `Level` in hand is the proof the kernels' `unsafe` calls rely on. Every
/// level below a supported one is supported too: AVX-512 is reported only
/// with AVX2, and SSE2 is part of x86_64.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Level(Isa);

impl Level {
    /// The instruction level.
    pub(crate) fn isa(self) -> Isa {
        self.0
    }

    /// The scalar level, supported everywhere: the reference the tests
    /// hold every wider level to.
    #[cfg(test)]
    pub(crate) fn portable() -> Self {
        Self(Isa::Portable)
    }

    /// The next narrower level, for the rows a wide row group leaves over.
    pub(crate) fn narrower(self) -> Self {
        Self(match self.0 {
            Isa::Avx512 => Isa::Avx,
            Isa::Avx => Isa::Sse2,
            Isa::Sse2 | Isa::Portable => Isa::Portable,
        })
    }
}

/// The widest level of this host, detected on first use.
pub(crate) fn host() -> Level {
    static HOST: OnceLock<Level> = OnceLock::new();
    *HOST.get_or_init(detect)
}

/// The vector level the kernels run at on this host: `"avx512"`,
/// `"avx2"`, `"sse2"` or `"portable"`, detected once.
pub fn vector_level() -> &'static str {
    match host().isa() {
        Isa::Portable => "portable",
        Isa::Sse2 => "sse2",
        Isa::Avx => "avx2",
        Isa::Avx512 => "avx512",
    }
}

/// Every level this host runs, narrowest first: tests force each one.
#[cfg(test)]
pub(crate) fn levels() -> impl Iterator<Item = Level> {
    let widest = host().isa();
    [Isa::Portable, Isa::Sse2, Isa::Avx, Isa::Avx512]
        .into_iter()
        .filter(move |&isa| isa <= widest)
        .map(Level)
}

#[cfg(target_arch = "x86_64")]
fn detect() -> Level {
    Level(if !std::is_x86_feature_detected!("avx2") {
        Isa::Sse2
    } else if std::is_x86_feature_detected!("avx512f") {
        Isa::Avx512
    } else {
        Isa::Avx
    })
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> Level {
    Level(Isa::Portable)
}

/// Defines a kernel over element-wise loops, compiled for the x86_64
/// baseline and cloned with AVX2 enabled, and runs the clone the [`Level`]
/// passed as its first argument selects: the AVX2 one at `Avx` and
/// `Avx512`. The body must not see that argument: both copies are the same
/// loop, so each element gets the same operations in the same order
/// whatever the vector width. There is no AVX-512F clone: one measured no
/// faster than the AVX2 clone at the model's shapes (DESIGN.md §7b).
/// Unbounded type parameters (`fn f<S>(…)`) are passed on to both copies;
/// bounds go in `impl Trait` arguments.
macro_rules! elementwise {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident $(<$($gen:ident),*>)?
            ($level:ident: Level, $($arg:ident: $ty:ty),* $(,)?) $body:block
    ) => {
        $(#[$attr])*
        $vis fn $name $(<$($gen),*>)? ($level: $crate::simd::Level, $($arg: $ty),*) {
            #[inline(always)]
            fn body $(<$($gen),*>)? ($($arg: $ty),*) $body
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            fn avx2 $(<$($gen),*>)? ($($arg: $ty),*) {
                body($($arg),*)
            }
            match $level.isa() {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: a `Level` of `Avx` or wider exists only when the
                // host reported AVX2 (`simd::detect`).
                $crate::simd::Isa::Avx | $crate::simd::Isa::Avx512 => unsafe { avx2($($arg),*) },
                _ => body($($arg),*),
            }
        }
    };
}

pub(crate) use elementwise;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_run_from_portable_up_to_the_host() {
        let all: Vec<Isa> = levels().map(Level::isa).collect();
        assert_eq!(all.first(), Some(&Isa::Portable));
        assert_eq!(all.last(), Some(&host().isa()));
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        #[cfg(target_arch = "x86_64")]
        assert!(all.contains(&Isa::Sse2));
        for level in levels() {
            assert!(level.narrower().isa() <= level.isa());
        }
    }
}
