//! Parked pool helpers burn no CPU.
//!
//! This is the only test of its binary, so no other test's region can wake
//! the helpers while it measures them. It reads each helper's CPU time from
//! `/proc/self/task/*/stat`, finding the helpers by their thread name.

#![cfg(target_os = "linux")]

use std::fs;
use std::thread;
use std::time::Duration;

use rayon::prelude::*;

/// Every pool helper's user + system CPU time in clock ticks, and how many
/// helpers there are.
fn helper_ticks() -> (usize, u64) {
    let mut helpers = 0;
    let mut ticks = 0;
    for task in fs::read_dir("/proc/self/task").expect("list this process's threads") {
        let task = task.expect("read a thread's entry").path();
        let comm = fs::read_to_string(task.join("comm")).expect("read a thread's name");
        if !comm.trim_end().starts_with("rayon-shim-") {
            continue;
        }
        let stat = fs::read_to_string(task.join("stat")).expect("read a helper's stat");
        // The name, field 2, is in parentheses; field 3 follows its last
        // `)`. utime and stime are fields 14 and 15 (proc(5)).
        let after_name = &stat[stat.rfind(')').expect("a parenthesized name") + 2..];
        let fields: Vec<&str> = after_name.split(' ').collect();
        let field = |n: usize| fields[n - 3].parse::<u64>().expect("a tick count");
        helpers += 1;
        ticks += field(14) + field(15);
    }
    (helpers, ticks)
}

#[test]
fn parked_helpers_burn_no_cpu() {
    let mut data = vec![0u64; 64];
    data.par_chunks_mut(8)
        .enumerate()
        .for_each(|(i, c)| c.fill(i as u64));
    assert!((0..64).all(|k| data[k] == k as u64 / 8));
    // Far past the helpers' spin window: every helper has parked.
    thread::sleep(Duration::from_millis(100));
    let (helpers, before) = helper_ticks();
    assert_eq!(helpers, rayon::current_num_threads() - 1, "named helpers");
    thread::sleep(Duration::from_millis(300));
    let (_, after) = helper_ticks();
    assert!(
        after - before <= 1,
        "{helpers} parked helpers used {} ticks in 300 ms",
        after - before
    );
}
