//! Offline stand-in for the `rayon` crate.
//!
//! The build environment cannot fetch crates.io dependencies, so this crate
//! provides the small slice of rayon's API the workspace uses —
//! `par_chunks_mut(..).enumerate().for_each(..)`, `par_iter` over slices,
//! `into_par_iter` over ranges, and [`current_num_threads`] — implemented
//! with `std::thread::scope` worker pools. Work items are distributed
//! dynamically (an atomic cursor over the item list), so uneven chunk costs
//! balance across threads just as with rayon's work stealing, only at chunk
//! granularity. A panicking task stops the hand-out of further items, and
//! the first panic resumes on the caller with its own payload once every
//! worker has stopped, matching rayon.
//!
//! Swapping the real crate back in requires only a `Cargo.toml` change.

#![warn(missing_docs)]

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Everything a `use rayon::prelude::*` caller expects.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelIterator, ParallelSlice, ParallelSliceMut};
}

/// Number of worker threads a parallel operation may use: the machine's
/// available parallelism, read on the first call and fixed for the rest of
/// the process, as rayon fixes its global pool's size when it builds it.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Runs `items` through `f` on up to [`current_num_threads`] scoped worker
/// threads. Items are handed out through a shared cursor, so the assignment
/// of items to threads is dynamic; `f` must therefore be safe to call
/// concurrently from several threads.
///
/// A task's panic is caught on its worker: the cursor jumps past the end so
/// no further items are handed out, and once the scope has joined, the
/// first payload resumes on the caller. `std::thread::scope` would
/// otherwise replace it with "a scoped thread panicked".
fn run_parallel<T: Send, F: Fn(T) + Sync>(items: Vec<T>, f: F) {
    let threads = current_num_threads().min(items.len());
    if threads <= 1 {
        for item in items {
            f(item);
        }
        return;
    }
    let queue: Vec<Mutex<Option<T>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let cursor = AtomicUsize::new(0);
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let f = &f;
    let queue = &queue;
    let cursor = &cursor;
    let first_panic = &first_panic;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(move || loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                if idx >= queue.len() {
                    break;
                }
                let item = queue[idx]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                    .expect("each slot is taken exactly once");
                if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| f(item))) {
                    // Relaxed: the cursor only stops the hand-out; the
                    // payload travels through the mutex and the scope join.
                    cursor.store(queue.len(), Ordering::Relaxed);
                    first_panic
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .get_or_insert(payload);
                    break;
                }
            });
        }
    });
    let payload = first_panic.lock().unwrap_or_else(|e| e.into_inner()).take();
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
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
}
