//! CPU affinity of every thread of this process (Linux).
//!
//! The service traffic is a closed loop: the client waits while the server
//! works, and the server waits while the client reads. Run on two CPUs,
//! each hand-over wakes a thread on the other, often idle, CPU; in a
//! virtual machine that wake-up goes through the host's scheduler and its
//! delay follows the other tenants' load, not the program. Pinned to one
//! CPU, a hand-over is a context switch on a busy CPU.

use std::io;

/// Room for 1024 CPUs, as glibc's `cpu_set_t`.
type Mask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

const ESRCH: i32 = 3;

/// The CPUs the calling thread may run on.
pub fn current() -> io::Result<Mask> {
    let mut mask: Mask = [0; 16];
    // SAFETY: the kernel writes at most `size_of::<Mask>()` bytes to `mask`.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(mask)
}

/// Only the lowest CPU of `mask`.
pub fn first_cpu(mask: &Mask) -> Mask {
    let mut one: Mask = [0; 16];
    if let Some((i, word)) = mask.iter().enumerate().find(|(_, w)| **w != 0) {
        one[i] = 1 << word.trailing_zeros();
    }
    one
}

/// Give every thread of this process `mask`. Threads started later take
/// the mask of the thread that starts them.
pub fn set_all(mask: &Mask) -> io::Result<()> {
    for entry in std::fs::read_dir("/proc/self/task")? {
        let name = entry?.file_name();
        let tid: i32 = name
            .to_string_lossy()
            .parse()
            .map_err(|_| io::Error::other(format!("task id {name:?}")))?;
        // SAFETY: the kernel reads `size_of::<Mask>()` bytes from `mask`.
        if unsafe { sched_setaffinity(tid, std::mem::size_of::<Mask>(), mask.as_ptr()) } != 0 {
            let e = io::Error::last_os_error();
            // The thread ended after the directory was read.
            if e.raw_os_error() != Some(ESRCH) {
                return Err(e);
            }
        }
    }
    Ok(())
}
