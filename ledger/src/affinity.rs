//! Pins a thread to one CPU. The serving shards run on threads of this
//! process; left to the scheduler, two shards sometimes share a CPU for a
//! whole run and serve in turn instead of side by side, which moves the
//! routed latencies by a shard's server time from one run to the next.

/// `cpu_set_t`: a mask of 1024 CPUs.
#[cfg(target_os = "linux")]
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Pins the calling thread to the `i`-th (modulo their count) of the
/// CPUs this process may run on; false if that failed.
#[cfg(target_os = "linux")]
pub fn pin_current_thread(i: usize) -> bool {
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a writable mask of `size` bytes; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return false;
    }
    let cpus: Vec<usize> = (0..size * 8)
        .filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    let Some(&cpu) = cpus.get(i % cpus.len().max(1)) else {
        return false;
    };
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable mask of `size` bytes.
    unsafe { sched_setaffinity(0, size, &one) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_current_thread(_i: usize) -> bool {
    true
}
