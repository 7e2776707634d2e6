//! Order-fixed parallel execution of per-client work.
//!
//! The simulator's single concurrency rule (DESIGN.md §7): client work may
//! run on any thread, but (a) each work item draws only from its own keyed
//! RNG stream, and (b) results land in their input index slot, so every
//! downstream reduction folds them in a fixed order. Under that rule,
//! `Parallelism::Rayon` and `Parallelism::Sequential` produce bit-identical
//! results — asserted by `tests/determinism.rs` at the workspace level and
//! by the unit tests below.
//!
//! Because the rule constrains only *streams* and *slots* — never the
//! schedule — it also licenses coarser task shapes than a flat per-item
//! map: [`Parallelism::map_chains`] runs long-lived sequential chains (one
//! per edge) with no barrier between chains. The block phase in `hm-core`
//! uses this to run a whole round with a single fork/join.
//!
//! The workspace builds against a vendored rayon shim (`vendor/rayon`):
//! each parallel call splits its input into at most one contiguous part
//! per thread and runs them on the caller and a long-lived worker pool; a
//! call made from inside a part runs inline on that part's thread.

use rayon::prelude::*;

/// Whether client work runs sequentially or on the rayon pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Single-threaded (reference semantics, useful for debugging).
    Sequential,
    /// Data-parallel over clients via rayon (the default).
    #[default]
    Rayon,
}

impl Parallelism {
    /// Resolve the mode from the `HM_PARALLELISM` environment variable:
    /// `"sequential"` (case-insensitive) selects [`Parallelism::Sequential`],
    /// anything else — including an unset variable — selects the default
    /// [`Parallelism::Rayon`]. CI uses this to run the whole test suite
    /// under both executors without code changes.
    pub fn from_env() -> Self {
        Self::from_env_value(std::env::var("HM_PARALLELISM").ok().as_deref())
    }

    /// Resolve the mode from an already-read `HM_PARALLELISM` value
    /// (`None` = unset). Pure function of its argument, so tests can cover
    /// every case without mutating the process-global environment.
    pub fn from_env_value(value: Option<&str>) -> Self {
        match value {
            Some(v) if v.eq_ignore_ascii_case("sequential") => Parallelism::Sequential,
            _ => Parallelism::Rayon,
        }
    }

    /// Map `f` over index `0..n`, returning outputs in index order.
    pub fn map_indexed<U, F>(self, n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Send + Sync,
    {
        match self {
            Parallelism::Sequential => (0..n).map(f).collect(),
            Parallelism::Rayon => (0..n).into_par_iter().map(f).collect(),
        }
    }

    /// Map `f` over borrowed `items`, returning outputs in input order.
    pub fn map_ref<T, U, F>(self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Send + Sync,
    {
        match self {
            Parallelism::Sequential => items.iter().map(f).collect(),
            Parallelism::Rayon => items.par_iter().map(f).collect(),
        }
    }

    /// Run `n` independent sequential *chains* concurrently, returning each
    /// chain's output in index order.
    ///
    /// A chain is a long-lived task (e.g. one edge's τ2 client-edge blocks)
    /// that runs start to finish on one worker with no synchronisation
    /// against sibling chains. `with_max_len(1)` asks the real rayon crate
    /// to split the range down to one chain per task, so chains of very
    /// different cost (stragglers, uneven rosters) are not glued into the
    /// same task and idle workers can steal them. The vendored shim
    /// ignores the hint: it splits the chains into one contiguous run per
    /// thread for the caller and its pool's workers to claim, and parallel
    /// calls made inside a chain run inline on the chain's thread.
    pub fn map_chains<U, F>(self, n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Send + Sync,
    {
        match self {
            Parallelism::Sequential => (0..n).map(f).collect(),
            Parallelism::Rayon => (0..n).into_par_iter().with_max_len(1).map(f).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_indexed_matches_sequential() {
        let work = |i: usize| -> u64 {
            // Hash-like deterministic work.
            let mut s = i as u64 + 1;
            for _ in 0..100 {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            s
        };
        let seq = Parallelism::Sequential.map_indexed(64, work);
        let par = Parallelism::Rayon.map_indexed(64, work);
        assert_eq!(seq, par);
    }

    #[test]
    fn from_env_value_selects_executor() {
        // Exercises the pure resolver rather than set_var/remove_var: env
        // vars are process-global, and mutating them here would race with
        // any parallel test that calls `from_env`.
        assert_eq!(Parallelism::from_env_value(None), Parallelism::Rayon);
        assert_eq!(
            Parallelism::from_env_value(Some("Sequential")),
            Parallelism::Sequential
        );
        assert_eq!(
            Parallelism::from_env_value(Some("sequential")),
            Parallelism::Sequential
        );
        assert_eq!(
            Parallelism::from_env_value(Some("rayon")),
            Parallelism::Rayon
        );
        assert_eq!(
            Parallelism::from_env_value(Some("garbage")),
            Parallelism::Rayon
        );
    }

    #[test]
    fn empty_input_is_fine() {
        let indexed: Vec<u8> = Parallelism::Rayon.map_indexed(0, |_| 0);
        assert!(indexed.is_empty());
        let borrowed: Vec<u8> = Parallelism::Rayon.map_ref(&[], |x: &u8| *x);
        assert!(borrowed.is_empty());
        let chains: Vec<u8> = Parallelism::Rayon.map_chains(0, |_| 0);
        assert!(chains.is_empty());
    }

    #[test]
    fn map_ref_does_not_consume_and_preserves_order() {
        let items: Vec<usize> = (0..64).collect();
        for mode in [Parallelism::Sequential, Parallelism::Rayon] {
            let out = mode.map_ref(&items, |&x| x * 3);
            assert_eq!(out, (0..64).map(|x| x * 3).collect::<Vec<_>>());
        }
        // `items` is still usable: the whole point of the borrowed variant.
        assert_eq!(items.len(), 64);
    }

    #[test]
    fn map_chains_matches_sequential_with_nested_fanout() {
        // Each chain runs several "blocks" sequentially, with a nested
        // parallel call inside (edges × blocks × inner items).
        let run = |mode: Parallelism| -> Vec<u64> {
            mode.map_chains(6, |chain| {
                let mut acc = chain as u64;
                for block in 0..4 {
                    let inner = mode.map_indexed(3, |client| {
                        let mut s = (chain * 100 + block * 10 + client) as u64 + 1;
                        for _ in 0..50 {
                            s = s
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                        }
                        s
                    });
                    for v in inner {
                        acc = acc.wrapping_add(v);
                    }
                }
                acc
            })
        };
        assert_eq!(run(Parallelism::Sequential), run(Parallelism::Rayon));
    }
}
