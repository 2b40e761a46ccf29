//! Tracked mutex and runtime lock-order tracker — the workspace's one
//! lock-order checker.
//!
//! A [`Mutex`] is built with the stable name of its site,
//! `crate::module::Struct.field`, and its [`Mutex::lock`] returns a guard
//! that owns the tracking token: a lock cannot be taken untracked and a
//! token cannot outlive its guard. The tracker keeps a per-thread stack
//! of held sites and a global set of observed `(outer, inner)` ordering
//! edges.
//!
//! Three consumers, all in debug builds:
//!
//! 1. **Inversion detection**: locking `A` while holding `B` after
//!    `A -> B` has been observed anywhere in the process means two sites
//!    nest both ways — a potential deadlock — and `lock` panics at the
//!    acquisition site, before blocking, naming both sites.
//! 2. **The pinned edge list**: `qsim-serve/tests/lock_order.rs` drives a
//!    service workload and asserts [`observed_edges`] *equals* a literal
//!    list, so a new nesting is a failing test and a deliberate edit.
//! 3. [`assert_none_held`] states "no lock is held here" at the one place
//!    it matters, `qsim-serve`'s `worker::run_unit`: no serve lock is held
//!    across a backend run.
//!
//! In release builds (`debug_assertions` off) the token is zero-sized and
//! nothing is recorded: the wrapper is `std::sync::Mutex` with poison
//! recovered, the one mutex flavour the workspace uses.
//!
//! Self-edges (two instances of one site nested, e.g. two pools of the
//! same type) are recorded but never treated as inversions — site names
//! identify declarations, not instances.

use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, LockResult, PoisonError};
use std::time::Duration;

#[cfg(debug_assertions)]
mod imp {
    use std::cell::RefCell;
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock};

    thread_local! {
        static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    }

    // The tracker's own table is never held while acquiring a tracked
    // lock, and tracking it would recurse.
    static EDGES: OnceLock<Mutex<HashSet<(&'static str, &'static str)>>> = OnceLock::new();

    fn edges() -> &'static Mutex<HashSet<(&'static str, &'static str)>> {
        EDGES.get_or_init(|| Mutex::new(HashSet::new()))
    }

    /// RAII token pairing one lock guard; popping order does not need to
    /// match lock-release order exactly (the stack is per-thread and the
    /// token removes its own entry), but in practice guards drop LIFO.
    #[derive(Debug)]
    pub struct Held {
        site: &'static str,
    }

    impl Drop for Held {
        fn drop(&mut self) {
            HELD.with(|h| {
                let mut held = h.borrow_mut();
                if let Some(pos) = held.iter().rposition(|s| *s == self.site) {
                    held.remove(pos);
                }
            });
        }
    }

    pub fn track(site: &'static str) -> Held {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            let mut table = super::recover(edges().lock());
            for outer in held.iter() {
                if *outer == site {
                    // Same-site nesting: record, never invert.
                    table.insert((site, site));
                    continue;
                }
                if table.contains(&(site, *outer)) {
                    panic!(
                        "lock-order inversion: site `{site}` acquired while holding \
                         `{outer}`, but the opposite order `{site}` -> `{outer}` was \
                         observed earlier in this process"
                    );
                }
                table.insert((*outer, site));
            }
            drop(table);
            held.push(site);
        });
        Held { site }
    }

    pub fn assert_none_held(what: &str) {
        HELD.with(|h| assert!(h.borrow().is_empty(), "{what} while holding {:?}", h.borrow()));
    }

    pub fn observed_edges() -> Vec<(&'static str, &'static str)> {
        let table = super::recover(edges().lock());
        let mut v: Vec<_> = table.iter().copied().collect();
        v.sort_unstable();
        v
    }

    pub fn reset_observed_edges() {
        super::recover(edges().lock()).clear();
    }
}

#[cfg(not(debug_assertions))]
mod imp {
    /// Inert release-build token.
    #[derive(Debug)]
    pub struct Held;

    #[inline(always)]
    pub fn track(_site: &'static str) -> Held {
        Held
    }

    #[inline(always)]
    pub fn assert_none_held(_what: &str) {}

    pub fn observed_edges() -> Vec<(&'static str, &'static str)> {
        Vec::new()
    }

    pub fn reset_observed_edges() {}
}

use imp::{track, Held};

/// Every update under a tracked lock leaves its data valid at every step
/// (counters, maps and queues of owned jobs), so a poisoned lock is
/// recovered — here, once, for `lock` and both waits.
fn recover<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// A `std::sync::Mutex` that knows its lock site.
#[derive(Debug)]
pub struct Mutex<T> {
    site: &'static str,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// A mutex at the site named `site` (`crate::module::Struct.field`).
    pub const fn new(site: &'static str, value: T) -> Self {
        Mutex { site, inner: std::sync::Mutex::new(value) }
    }

    /// Record the acquisition (debug builds: panic on an inversion before
    /// blocking), then lock.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let held = track(self.site);
        MutexGuard { guard: recover(self.inner.lock()), held }
    }
}

/// The guard of a [`Mutex`]; its site leaves the thread's held stack
/// when it drops.
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    guard: std::sync::MutexGuard<'a, T>,
    held: Held,
}

impl<T> MutexGuard<'_, T> {
    /// [`Condvar::wait`] on this guard. The site stays on the held stack
    /// across the wait: a parked thread runs nothing, so no false
    /// ordering is recorded.
    pub fn wait(self, condvar: &Condvar) -> Self {
        let MutexGuard { guard, held } = self;
        MutexGuard { guard: recover(condvar.wait(guard)), held }
    }

    /// [`Condvar::wait_timeout`] on this guard.
    pub fn wait_timeout(self, condvar: &Condvar, timeout: Duration) -> Self {
        let MutexGuard { guard, held } = self;
        MutexGuard { guard: recover(condvar.wait_timeout(guard, timeout)).0, held }
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// Panic, naming `what`, if this thread holds any tracked lock. Inert in
/// release builds.
pub fn assert_none_held(what: &str) {
    imp::assert_none_held(what);
}

/// All `(outer, inner)` ordering edges observed so far in this process,
/// sorted. Empty in release builds.
pub fn observed_edges() -> Vec<(&'static str, &'static str)> {
    imp::observed_edges()
}

/// Clear the observed-edge set (test isolation within one process).
pub fn reset_observed_edges() {
    imp::reset_observed_edges();
}

#[cfg(test)]
mod tests {
    use super::*;

    // The edge table is process-global, so the tests here use site names
    // no production code uses and avoid asserting global emptiness. The
    // held stack is per thread, and every test runs on its own.

    fn panic_message(result: std::thread::Result<()>) -> String {
        let payload = result.expect_err("must panic");
        payload.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn nested_locks_record_an_edge() {
        let (a, b) =
            (Mutex::new("test::lockorder::A.outer", 1), Mutex::new("test::lockorder::B.inner", 2));
        {
            let outer = a.lock();
            let mut inner = b.lock();
            *inner += *outer;
        }
        assert_eq!(*b.lock(), 3);
        let edge = ("test::lockorder::A.outer", "test::lockorder::B.inner");
        assert_eq!(observed_edges().contains(&edge), cfg!(debug_assertions));
    }

    #[test]
    fn same_site_nesting_is_not_an_inversion() {
        let pools = [
            Mutex::new("test::lockorder::Pool.bucket", ()),
            Mutex::new("test::lockorder::Pool.bucket", ()),
        ];
        for (first, second) in [(0, 1), (1, 0)] {
            let _a = pools[first].lock();
            let _b = pools[second].lock();
        }
        // Reaching here without panicking is the assertion.
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "tracker is inert in release builds")]
    fn locking_in_both_orders_panics_with_both_site_names() {
        let (x, y) =
            (Mutex::new("test::lockorder::Inv.x", ()), Mutex::new("test::lockorder::Inv.y", ()));
        let message = panic_message(std::panic::catch_unwind(|| {
            {
                let _x = x.lock();
                let _y = y.lock();
            }
            let _y = y.lock();
            let _x = x.lock();
        }));
        assert!(message.contains("lock-order inversion"), "unexpected panic payload: {message}");
        assert!(message.contains("Inv.x") && message.contains("Inv.y"), "{message}");
        // The refused acquisition never blocked, and the unwind released
        // `y` and emptied the held stack.
        assert_none_held("after the inversion unwound");
        drop(y.lock());
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "tracker is inert in release builds")]
    fn assert_none_held_panics_while_a_guard_is_alive() {
        let m = Mutex::new("test::lockorder::Held.m", ());
        let message = panic_message(std::panic::catch_unwind(|| {
            let _guard = m.lock();
            assert_none_held("backend run");
        }));
        assert!(message.contains("backend run") && message.contains("Held.m"), "{message}");
        assert_none_held("after the guard dropped");
    }

    #[test]
    fn a_guard_that_waited_still_pops_its_site() {
        let m = Mutex::new("test::lockorder::Wait.m", 0u32);
        let condvar = Condvar::new();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let mut guard = m.lock();
                while *guard == 0 {
                    guard = guard.wait(&condvar);
                }
                guard = guard.wait_timeout(&condvar, Duration::from_millis(1));
                *guard += 1;
                drop(guard);
                assert_none_held("after the waits");
            });
            *m.lock() = 1;
            condvar.notify_all();
            waiter.join().expect("waiter");
        });
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "tracker is armed in debug builds")]
    fn release_build_is_inert() {
        assert_eq!(std::mem::size_of::<Held>(), 0);
        let (x, y) =
            (Mutex::new("test::lockorder::Rel.x", ()), Mutex::new("test::lockorder::Rel.y", ()));
        {
            let _x = x.lock();
            let _y = y.lock();
        }
        let _y = y.lock();
        let _x = x.lock();
        assert_none_held("ignored in release");
        assert!(observed_edges().is_empty());
    }
}
