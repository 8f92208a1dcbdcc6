//! Core placement for the single-threaded event loop.
//!
//! On a shared host one core can be slowed for minutes by a neighbour
//! (measured here: the same event loop ran at 4.1 µs per event on one
//! core and 6.5 µs on the other at the same time, and the slow core
//! changed from run to run). A single-threaded pass that stays on
//! whichever core the scheduler picked inherits that core's state for
//! the whole pass. Pinning pass `i` to the `i`-th allowed core (modulo
//! their number) gives every operation a timing on every core, so the
//! best of the passes reads the operation on an undisturbed core
//! whenever one exists. A change to the program moves every core alike.
//!
//! Only code that starts no threads may run pinned: threads spawned
//! while the caller is pinned (the rayon workers) inherit its one-CPU
//! set and would share a single core.

/// The calling thread's original CPU set, restored on drop.
pub struct Pin {
    original: CpuSet,
}

/// A `cpu_set_t` (1024 CPUs, the glibc size).
#[derive(Clone, Copy)]
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

fn set_affinity(set: &CpuSet) -> bool {
    // SAFETY: `set` points to a live, initialised `cpu_set_t`-sized
    // buffer for the duration of the call, and pid 0 names the calling
    // thread; the call reads at most `size_of::<CpuSet>()` bytes.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
}

/// The calling thread's CPU set and the CPUs in it, if it can be read.
fn allowed() -> Option<(CpuSet, Vec<usize>)> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a writable `cpu_set_t`-sized buffer owned by
    // this frame and pid 0 names the calling thread; the kernel writes
    // at most `size_of::<CpuSet>()` bytes into it.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } == 0;
    ok.then(|| {
        let cpus = (0..1024)
            .filter(|&c| set.0[c / 64] & (1 << (c % 64)) != 0)
            .collect();
        (set, cpus)
    })
}

/// Pins the calling thread to the `n`-th allowed CPU (modulo their
/// number) until the returned guard drops. `None` when fewer than two
/// CPUs are allowed or the set cannot be read or changed.
pub fn pin_nth(n: usize) -> Option<Pin> {
    let (original, cpus) = allowed()?;
    if cpus.len() < 2 {
        return None;
    }
    let cpu = cpus[n % cpus.len()];
    let mut set = CpuSet([0; 16]);
    set.0[cpu / 64] |= 1 << (cpu % 64);
    set_affinity(&set).then_some(Pin { original })
}

impl Drop for Pin {
    fn drop(&mut self) {
        // Best effort: a thread left pinned only narrows where the
        // rest of the run is scheduled.
        set_affinity(&self.original);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_visits_every_allowed_cpu_and_restores_the_set() {
        let (_, before) = allowed().expect("the CPU set is readable");
        for n in 0..before.len() {
            let pin = pin_nth(n);
            if before.len() > 1 {
                assert!(pin.is_some(), "pinning to an allowed CPU succeeds");
                let (_, now) = allowed().expect("readable while pinned");
                assert_eq!(now, vec![before[n]], "pinned to the n-th CPU");
            }
        }
        assert_eq!(
            allowed().expect("readable").1,
            before,
            "the set is restored"
        );
    }
}
