//! One helper thread that runs a kernel's chunks alongside its caller.
//!
//! A kernel worth splitting hands [`for_each_chunk`] its output and a
//! function that fills one chunk of it. The caller and the process's one
//! helper thread claim chunks from an atomic counter until none is left, and
//! each chunk writes only its own slice of the output. One thread computes
//! every output element in full, so which thread ran a chunk changes no bit
//! of the result.
//!
//! * The first shared call spawns the helper, unless
//!   [`available_parallelism`](std::thread::available_parallelism) is 1:
//!   then there is no helper and each caller runs its whole output at once.
//! * The helper serves one caller at a time. A second caller runs its whole
//!   output alone.
//! * The first time the callers inside shared calls, plus the helper,
//!   outnumber the CPUs, the helper retires for the life of the process, and
//!   every later call runs on its caller. On two CPUs that is any two
//!   callers at once, such as two experiment cells that each train an agent:
//!   each already keeps a CPU busy, and a helper would only take turns with
//!   them.
//! * A chunk that reaches a shared call runs that call inline, and does not
//!   count as a second caller.
//! * A chunk that panics, on either thread, panics its caller with the same
//!   payload.
//! * The caller waits on at most the one chunk the helper holds when the
//!   caller runs out of chunks; it parks until the helper wakes it.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::{self, Thread};

/// Chunks a shared call cuts its output into: 9 row bands each of a
/// 288 × 64 · 64 × 64 product, 4 tiles each of a 256-point GP acquisition.
/// The caller's last wait is on at most one chunk; 16 chunks measured no
/// faster on products of 2^19 to 2^20.2 multiply-adds.
const CHUNKS: usize = 8;

/// The helper thread and the CPU count its retirement rule compares with.
struct Helper {
    thread: Thread,
    cpus: usize,
}

/// The helper, spawned by the first shared call; `None` on one CPU, or if
/// the thread could not be spawned.
static HELPER: OnceLock<Option<Helper>> = OnceLock::new();
/// The job a caller has posted and the helper has not taken yet.
static POSTED: AtomicPtr<Job<'static>> = AtomicPtr::new(ptr::null_mut());
/// Set while a caller owns the helper.
static BUSY: AtomicBool = AtomicBool::new(false);
/// Callers inside shared calls now, nested calls not counted.
static CALLERS: AtomicUsize = AtomicUsize::new(0);
/// Set for good the first time the callers plus the helper outnumber the
/// CPUs.
static RETIRED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Set on the helper thread, and on a caller while it runs a shared
    /// call, so that a nested call runs inline.
    static INSIDE: Cell<bool> = const { Cell::new(false) };
}

/// A caller's claim loop, lent to the helper for one call.
struct Job<'a> {
    work: &'a (dyn Fn() + Sync),
    caller: Thread,
    /// Set by the helper once it no longer touches the job.
    done: AtomicBool,
    /// The panic the helper caught in `work`, for the caller to resume.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// Runs `kernel(start, chunk)` over `out` in chunks, where `start` is the
/// chunk's offset in `out`, and returns when every chunk has run once.
///
/// When the helper is free, `out` is cut into at most eight chunks of whole
/// multiples of `unit` elements, which the caller and the helper share (see
/// the module docs). Otherwise, and when `out` holds too few units to cut,
/// the caller runs `kernel(0, out)` once.
///
/// # Panics
///
/// Panics if `unit` is 0, and with the payload of a chunk that panicked, on
/// whichever thread it ran; the other chunks may or may not have run.
pub fn for_each_chunk<T: Send>(
    out: &mut [T],
    unit: usize,
    kernel: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(unit > 0, "chunk unit must be non-zero");
    let len = unit * out.len().div_ceil(unit).div_ceil(CHUNKS);
    if out.len() <= len || INSIDE.get() {
        return kernel(0, out);
    }
    let Some(helper) = HELPER.get_or_init(spawn) else {
        return kernel(0, out);
    };
    let _inside = Inside::enter(helper.cpus);
    if RETIRED.load(Ordering::Relaxed) || BUSY.swap(true, Ordering::Acquire) {
        return kernel(0, out);
    }
    // A chunk's lock is taken once, by the thread that claimed its index.
    let chunks: Vec<Mutex<&mut [T]>> = out.chunks_mut(len).map(Mutex::new).collect();
    // The counter only hands out indices; it publishes no data.
    let next = AtomicUsize::new(0);
    share(helper, &|| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(chunk) = chunks.get(i) else { return };
        kernel(i * len, &mut chunk.lock().expect("a chunk is claimed once"));
    });
}

/// Runs `work` on the caller and on `helper`, which the caller owns
/// (`BUSY`), and returns once neither runs it any more.
fn share(helper: &Helper, work: &(dyn Fn() + Sync)) {
    let job = Job {
        work,
        caller: thread::current(),
        done: AtomicBool::new(false),
        panic: Mutex::new(None),
    };
    let posted = &job as *const Job<'_> as *mut Job<'static>;
    POSTED.store(posted, Ordering::Release);
    helper.thread.unpark();
    let ours = panic::catch_unwind(AssertUnwindSafe(work));
    // Take the job back; if the helper already took it, wait until it is
    // done with it. Either way the helper no longer touches `job` after this.
    if POSTED
        .compare_exchange(posted, ptr::null_mut(), Ordering::AcqRel, Ordering::Acquire)
        .is_err()
    {
        while !job.done.load(Ordering::Acquire) {
            thread::park();
        }
    }
    BUSY.store(false, Ordering::Release);
    let theirs = job
        .panic
        .into_inner()
        .expect("the helper never panics holding the slot");
    if let Err(payload) = ours {
        panic::resume_unwind(payload);
    }
    if let Some(payload) = theirs {
        panic::resume_unwind(payload);
    }
}

/// Marks a caller inside a shared call, and retires the helper the first
/// time the callers plus the helper outnumber the CPUs.
struct Inside;

impl Inside {
    fn enter(cpus: usize) -> Self {
        INSIDE.set(true);
        // A count with no data behind it: each increment reads every other
        // caller still inside, which is all the rule needs.
        let callers = CALLERS.fetch_add(1, Ordering::Relaxed) + 1;
        if callers + 1 > cpus {
            RETIRED.store(true, Ordering::Relaxed);
        }
        Inside
    }
}

impl Drop for Inside {
    fn drop(&mut self) {
        CALLERS.fetch_sub(1, Ordering::Relaxed);
        INSIDE.set(false);
    }
}

/// Spawns the helper on a machine with more than one CPU.
///
/// The helper is detached: it lives as long as the process, and it catches
/// every chunk's panic and hands it to that chunk's caller, so no panic is
/// lost with its join handle.
fn spawn() -> Option<Helper> {
    let cpus = thread::available_parallelism().map_or(1, |n| n.get());
    if cpus < 2 {
        return None;
    }
    let handle = thread::Builder::new()
        .name("gcnrl-linalg-helper".into())
        .spawn(serve)
        .ok()?;
    Some(Helper {
        thread: handle.thread().clone(),
        cpus,
    })
}

/// The helper's loop: take the posted job, run its claim loop, hand back any
/// panic, wake the caller.
fn serve() {
    INSIDE.set(true);
    loop {
        let posted = POSTED.swap(ptr::null_mut(), Ordering::Acquire);
        if posted.is_null() {
            thread::park();
            continue;
        }
        // SAFETY: a caller stored `posted`, a pointer to a job in its own
        // stack frame, and this swap took it out. That caller returns, or
        // unwinds, only after its compare-exchange finds the pointer gone
        // from `POSTED` and it then sees `done` set, which is this thread's
        // last touch of the job below. So the job, and every borrow in its
        // `work`, outlives each use here.
        let job = unsafe { &*posted };
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(job.work)) {
            *job.panic.lock().expect("only the helper locks the slot") = Some(payload);
        }
        let caller = job.caller.clone();
        job.done.store(true, Ordering::Release);
        caller.unpark();
    }
}
