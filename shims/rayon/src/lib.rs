//! Offline stand-in for the `rayon` crate.
//!
//! The build environment cannot fetch crates.io dependencies, so this crate
//! provides the small slice of rayon's API the workspace uses —
//! `par_chunks_mut(..).enumerate().for_each(..)`, `par_iter` over slices,
//! `into_par_iter` over ranges, and [`current_num_threads`] — on one
//! persistent pool, as rayon runs on its global pool. The first region that
//! can use more than one thread starts `current_num_threads() − 1` helper
//! threads, named `rayon-shim-1`, `rayon-shim-2`, …, which live for the
//! rest of the process. A region publishes its task loop, wakes parked
//! helpers, and the calling thread takes tasks too. Work items are
//! distributed dynamically (an atomic cursor over the item list), so uneven
//! chunk costs balance across threads just as with rayon's work stealing,
//! only at chunk granularity. After a region a helper spins for about
//! 20 µs, so that a region following at once finds it awake, and then
//! parks. A panicking task stops the hand-out of further items, and the
//! first panic resumes on the caller with its own payload once every
//! helper has left the region, matching rayon. A region started from inside
//! a task runs inline on that thread, so nesting cannot deadlock, and one
//! started while another thread's region holds the pool runs on its
//! caller alone.
//!
//! Swapping the real crate back in requires only a `Cargo.toml` change.

#![warn(missing_docs)]

use std::any::Any;
use std::cell::Cell;
use std::hint;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, Once, OnceLock, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Everything a `use rayon::prelude::*` caller expects.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelIterator, ParallelSlice, ParallelSliceMut};
}

/// Number of threads that run a parallel region's tasks: the calling thread
/// plus `current_num_threads() − 1` pool helpers. It is the machine's
/// available parallelism, read on the first call and fixed for the rest of
/// the process, as rayon fixes its global pool's size when it builds it.
pub fn current_num_threads() -> usize {
    *POOL.threads.get_or_init(|| {
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// How long a helper spins after a region before it parks, and how long a
/// caller spins for helpers still inside its region before it blocks.
///
/// A helper that is still spinning finds a region that follows at once,
/// such as the next pass of a simulated query, without a wake-up; one that
/// parked costs the next region a futex wake-up. The benchmark's sim-serve
/// and cpu-fastid workloads ran alike at 20, 50 and 100 µs, and the
/// shortest parks an idle process's helpers soonest
/// (`tests/idle_workers.rs`).
const SPIN: Duration = Duration::from_micros(20);

/// A published region's task loop, with its borrow of the caller's frame
/// erased (see [`Pool::enter`]).
type Job = &'static (dyn Fn() + Sync);

/// The process's one pool: its size, its helpers and the region they serve.
struct Pool {
    threads: OnceLock<usize>,
    start: Once,
    shared: Mutex<Shared>,
    /// Parked helpers wait here for the next region.
    wake: Condvar,
    /// A caller blocked in its region's join waits here for the last helper.
    left: Condvar,
    /// Regions published so far. Written under `shared`'s lock; a spinning
    /// helper reads it without the lock, then takes the lock to read `job`,
    /// so it publishes nothing itself and `Relaxed` suffices.
    epoch: AtomicUsize,
    /// Helpers inside the published region's job. A helper joins only under
    /// the lock while `job` is set, and leaves with a `Release` decrement
    /// that the caller's `Acquire` load of zero pairs with, so every write
    /// of its tasks happens-before the caller's return.
    active: AtomicUsize,
}

struct Shared {
    /// The region helpers may join, from its publication until its caller
    /// retracts it.
    job: Option<Job>,
    /// Set from a region's publication until its last helper has left.
    held: bool,
    /// Helpers parked on `wake`.
    parked: usize,
    /// The holding caller is blocked on `left`.
    joining: bool,
}

static POOL: Pool = Pool {
    threads: OnceLock::new(),
    start: Once::new(),
    shared: Mutex::new(Shared {
        job: None,
        held: false,
        parked: 0,
        joining: false,
    }),
    wake: Condvar::new(),
    left: Condvar::new(),
    epoch: AtomicUsize::new(0),
    active: AtomicUsize::new(0),
};

thread_local! {
    /// Set while this thread runs a region's tasks, and always on a helper:
    /// a region started here runs inline.
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Polls `done` for up to [`SPIN`]; returns whether it became true.
fn spin(done: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    while !done() {
        if start.elapsed() >= SPIN {
            return false;
        }
        hint::spin_loop();
    }
    true
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, Shared> {
        self.shared.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publishes `work` to the pool and wakes up to `helpers` parked
    /// helpers, unless another thread's region holds the pool; either way
    /// the caller then runs `work` itself. Dropping the returned [`Region`]
    /// joins the region.
    fn enter<'a>(&'static self, work: &'a (dyn Fn() + Sync), helpers: usize) -> Region<'a> {
        self.start.call_once(|| {
            for i in 1..current_num_threads() {
                // A helper that cannot start leaves its share of every
                // region to the caller and the other helpers. Helpers are
                // never joined, like rayon's: they serve until the process
                // exits, and no task's panic escapes `work`.
                let _ = thread::Builder::new()
                    .name(format!("rayon-shim-{i}"))
                    .spawn(move || self.serve());
            }
        });
        IN_REGION.set(true);
        let mut shared = self.lock();
        if shared.held {
            return Region {
                held: false,
                _work: PhantomData,
            };
        }
        // SAFETY: only the lifetime changes. A helper calls the job only
        // while counted in `active`, which it joins under the lock while
        // `job` is set. The `Region` returned here borrows `work` for 'a,
        // and its drop clears `job` under the lock and then waits until
        // `active` is 0, so every helper's call has returned before 'a
        // ends. `run_parallel` drops the `Region` before `work` and what
        // it borrows, also when it unwinds, and never forgets it.
        let job = unsafe { std::mem::transmute::<&'a (dyn Fn() + Sync + 'a), Job>(work) };
        shared.held = true;
        shared.job = Some(job);
        self.epoch.fetch_add(1, Ordering::Relaxed);
        let wake = shared.parked.min(helpers);
        drop(shared);
        for _ in 0..wake {
            self.wake.notify_one();
        }
        Region {
            held: true,
            _work: PhantomData,
        }
    }

    /// A helper's life: join each region published after the last one it
    /// saw, spinning for [`SPIN`] after each before it parks.
    fn serve(&self) {
        IN_REGION.set(true);
        let mut seen = 0;
        loop {
            spin(|| self.epoch.load(Ordering::Relaxed) != seen);
            let mut shared = self.lock();
            while self.epoch.load(Ordering::Relaxed) == seen {
                shared.parked += 1;
                shared = self
                    .wake
                    .wait(shared)
                    .unwrap_or_else(PoisonError::into_inner);
                shared.parked -= 1;
            }
            seen = self.epoch.load(Ordering::Relaxed);
            // `None`: the caller finished the region before this helper
            // got here.
            let Some(job) = shared.job else { continue };
            self.active.fetch_add(1, Ordering::Relaxed);
            drop(shared);
            job();
            if self.active.fetch_sub(1, Ordering::Release) == 1 && self.lock().joining {
                self.left.notify_one();
            }
        }
    }
}

/// The caller's side of a region that borrows `'a`. Dropping it, also while
/// unwinding, ends the caller's region and, if the region holds the pool,
/// retracts its job and waits for every helper that joined it.
struct Region<'a> {
    /// Whether this region holds the pool; if not, the caller runs it alone.
    held: bool,
    _work: PhantomData<&'a ()>,
}

impl Drop for Region<'_> {
    fn drop(&mut self) {
        IN_REGION.set(false);
        if !self.held {
            return;
        }
        POOL.lock().job = None;
        let left = || POOL.active.load(Ordering::Acquire) == 0;
        let done = spin(left);
        let mut shared = POOL.lock();
        if !done {
            shared.joining = true;
            while !left() {
                shared = POOL
                    .left
                    .wait(shared)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            shared.joining = false;
        }
        shared.held = false;
    }
}

/// Runs `items` through `f` on the pool: the caller and up to
/// [`current_num_threads`]` − 1` helpers. Items are handed out through a
/// shared cursor, so the assignment of items to threads is dynamic; `f`
/// must therefore be safe to call concurrently from several threads.
///
/// A task's panic is caught on its thread: the cursor jumps past the end so
/// no further items are handed out, and once the region has joined, the
/// first payload resumes on the caller.
fn run_parallel<T: Send, F: Fn(T) + Sync>(items: Vec<T>, f: F) {
    let threads = current_num_threads().min(items.len());
    if threads <= 1 || IN_REGION.get() {
        for item in items {
            f(item);
        }
        return;
    }
    let queue: Vec<Mutex<Option<T>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let cursor = AtomicUsize::new(0);
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let work = || loop {
        let idx = cursor.fetch_add(1, Ordering::Relaxed);
        if idx >= queue.len() {
            break;
        }
        let item = queue[idx]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("each slot is taken exactly once");
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| f(item))) {
            // Relaxed: the cursor only stops the hand-out; the payload
            // travels through the mutex and the region's join.
            cursor.store(queue.len(), Ordering::Relaxed);
            first_panic
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert(payload);
            break;
        }
    };
    let region = POOL.enter(&work, threads - 1);
    work();
    drop(region);
    let payload = first_panic
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take();
    if let Some(payload) = payload {
        panic::resume_unwind(payload);
    }
}

/// A finite, already-materialized parallel iterator (all adaptors collect
/// into item lists before running — fine at the chunk/tile granularity this
/// workspace parallelizes at).
pub struct ParIter<T: Send> {
    items: Vec<T>,
}

/// Operations on parallel iterators.
pub trait ParallelIterator: Sized {
    /// The element type.
    type Item: Send;

    /// Consumes the iterator into its item list.
    fn into_items(self) -> Vec<Self::Item>;

    /// Pairs every item with its index.
    fn enumerate(self) -> ParIter<(usize, Self::Item)> {
        ParIter {
            items: self.into_items().into_iter().enumerate().collect(),
        }
    }

    /// Applies `f` to every item on the worker pool.
    fn for_each<F: Fn(Self::Item) + Sync + Send>(self, f: F) {
        run_parallel(self.into_items(), f);
    }

    /// Maps every item on the worker pool, preserving order.
    fn map<U: Send, F: Fn(Self::Item) -> U + Sync + Send>(self, f: F) -> ParIter<U> {
        let items = self.into_items();
        let mut out: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
        {
            let tasks: Vec<(usize, Self::Item)> = items.into_iter().enumerate().collect();
            let out_cells: Vec<Mutex<&mut Option<U>>> = out.iter_mut().map(Mutex::new).collect();
            let out_cells = &out_cells;
            let f = &f;
            run_parallel(tasks, move |(i, item)| {
                **out_cells[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(f(item));
            });
        }
        ParIter {
            items: out.into_iter().map(|v| v.expect("mapped")).collect(),
        }
    }

    /// Collects the items (ordered).
    fn collect<C: FromIterator<Self::Item>>(self) -> C {
        self.into_items().into_iter().collect()
    }
}

impl<T: Send> ParallelIterator for ParIter<T> {
    type Item = T;
    fn into_items(self) -> Vec<T> {
        self.items
    }
}

/// Types convertible into a parallel iterator (`into_par_iter`).
pub trait IntoParallelIterator {
    /// The element type.
    type Item: Send;
    /// The resulting iterator.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Converts into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = ParIter<T>;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Iter = ParIter<usize>;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

/// `par_chunks` / `par_iter` over shared slices.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over `chunk`-sized pieces of the slice.
    fn par_chunks(&self, chunk: usize) -> ParIter<&[T]>;
    /// Parallel iterator over the elements.
    fn par_iter(&self) -> ParIter<&T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk: usize) -> ParIter<&[T]> {
        assert!(chunk > 0, "chunk size must be positive");
        ParIter {
            items: self.chunks(chunk).collect(),
        }
    }
    fn par_iter(&self) -> ParIter<&T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// `par_chunks_mut` over mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over disjoint `chunk`-sized mutable pieces.
    fn par_chunks_mut(&mut self, chunk: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk: usize) -> ParIter<&mut [T]> {
        assert!(chunk > 0, "chunk size must be positive");
        ParIter {
            items: self.chunks_mut(chunk).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::current_num_threads;
    use super::prelude::*;
    use std::panic;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::{self, ThreadId};
    use std::time::Duration;

    /// How often a test retries a region until a helper took one of its
    /// tasks: while a test beside it holds the pool, a region runs on its
    /// caller alone.
    const ATTEMPTS: usize = 2_000;

    /// A task long enough for a parked helper to wake and take the next.
    const TASK: Duration = Duration::from_millis(1);

    /// The name of the pool helper running this code, if it is one.
    fn helper_name() -> Option<String> {
        let name = thread::current().name()?.to_owned();
        name.starts_with("rayon-shim-").then_some(name)
    }

    #[test]
    fn chunks_mut_visits_every_chunk_once() {
        let mut data = vec![0u32; 1003];
        data.par_chunks_mut(100).enumerate().for_each(|(i, chunk)| {
            for v in chunk.iter_mut() {
                *v += i as u32 + 1;
            }
        });
        // Chunk i gets value i+1; 11 chunks, last of size 3.
        assert_eq!(data[0], 1);
        assert_eq!(data[999], 10);
        assert_eq!(data[1000..], [11, 11, 11]);
    }

    #[test]
    fn for_each_runs_all_tasks() {
        let hits = AtomicUsize::new(0);
        (0..257usize).into_par_iter().for_each(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn map_preserves_order() {
        let out: Vec<usize> = (0..100usize).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn task_panics_propagate() {
        (0..8usize).into_par_iter().for_each(|i| {
            if i == 5 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn a_task_panic_resumes_with_its_own_payload() {
        let caught = std::panic::catch_unwind(|| {
            let _: Vec<usize> = (0..64usize)
                .into_par_iter()
                .map(|i| {
                    if i == 3 {
                        std::panic::panic_any(i);
                    }
                    i
                })
                .collect();
        })
        .expect_err("the task's panic must reach the caller");
        assert_eq!(caught.downcast_ref::<usize>(), Some(&3));
    }

    #[test]
    fn a_region_inside_a_task_runs_inline_on_that_thread() {
        let caller = thread::current().id();
        let (mut on_caller, mut on_helper) = (false, current_num_threads() == 1);
        for _ in 0..ATTEMPTS {
            let outer: Vec<(ThreadId, Vec<usize>)> = (0..8usize)
                .into_par_iter()
                .map(|i| {
                    let here = thread::current().id();
                    let inner = (0..8usize)
                        .into_par_iter()
                        .map(|j| {
                            assert_eq!(thread::current().id(), here, "an inner task moved");
                            8 * i + j
                        })
                        .collect();
                    thread::sleep(TASK);
                    (here, inner)
                })
                .collect();
            for (i, (_, inner)) in outer.iter().enumerate() {
                assert_eq!(*inner, (8 * i..8 * i + 8).collect::<Vec<_>>());
            }
            on_caller |= outer.iter().any(|&(t, _)| t == caller);
            on_helper |= outer.iter().any(|&(t, _)| t != caller);
            if on_caller && on_helper {
                return;
            }
        }
        panic!("outer tasks ran on the caller: {on_caller}, on a helper: {on_helper}");
    }

    #[test]
    fn concurrent_callers_each_get_exact_results() {
        let callers: Vec<_> = (0..4u64)
            .map(|t| {
                thread::spawn(move || {
                    for r in 0..1_000u64 {
                        let base = t << 32 | r << 8;
                        let items: Vec<u64> = (base..base + 16).collect();
                        let got: Vec<u64> = items.into_par_iter().map(|v| v + 1).collect();
                        assert_eq!(got, (base + 1..base + 17).collect::<Vec<_>>());
                        let mut data = vec![base; 64];
                        data.par_chunks_mut(8).enumerate().for_each(|(i, c)| {
                            c.iter_mut().for_each(|v| *v += i as u64);
                        });
                        assert!((0..64).all(|k| data[k] == base + k as u64 / 8));
                    }
                })
            })
            .collect();
        for caller in callers {
            caller.join().expect("every region returns exact results");
        }
    }

    #[test]
    fn a_helper_that_caught_a_panic_serves_the_next_region() {
        if current_num_threads() == 1 {
            return;
        }
        let payload = (0..ATTEMPTS)
            .find_map(|_| {
                panic::catch_unwind(|| {
                    (0..8usize).into_par_iter().for_each(|_| {
                        if let Some(name) = helper_name() {
                            panic::panic_any(name);
                        }
                        thread::sleep(TASK);
                    })
                })
                .err()
            })
            .expect("a task ran on a helper");
        let name = payload
            .downcast::<String>()
            .expect("the helper's own payload");
        let served = (0..ATTEMPTS).any(|_| {
            let out: Vec<(usize, Option<String>)> = (0..8usize)
                .into_par_iter()
                .map(|i| {
                    thread::sleep(TASK);
                    (3 * i, helper_name())
                })
                .collect();
            assert!(out.iter().enumerate().all(|(i, o)| o.0 == 3 * i));
            out.iter().any(|o| o.1.as_ref() == Some(&name))
        });
        assert!(served, "{name} took no task after its task panicked");
    }

    #[test]
    fn empty_and_one_item_regions_run_on_the_caller() {
        let caller = thread::current().id();
        let none: Vec<ThreadId> = (0..0usize)
            .into_par_iter()
            .map(|_| thread::current().id())
            .collect();
        assert!(none.is_empty());
        let one: Vec<ThreadId> = (0..1usize)
            .into_par_iter()
            .map(|_| thread::current().id())
            .collect();
        assert_eq!(one, [caller]);
        let mut cells = [0u8; 3];
        cells.par_chunks_mut(3).for_each(|c| {
            assert_eq!(thread::current().id(), caller);
            c.fill(1);
        });
        assert_eq!(cells, [1; 3]);
    }
}
