//! A fixed-size worker pool over `std::thread` + `std::sync::mpsc` (the
//! environment has no rayon/crossbeam, and needs none: jobs here are
//! milliseconds-long simulator calls, so a mutex-guarded shared receiver is
//! nowhere near contention).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A pool of long-lived worker threads executing boxed jobs.
///
/// Jobs are expected to handle their own panics and report failure through
/// whatever channel they carry (the engine wraps chunk evaluation in
/// `catch_unwind` and forwards the payload to the submitting thread, which
/// rethrows it). As a second line of defense the worker loop also catches
/// panics, so a misbehaving job can never kill the thread for subsequent
/// batches.
#[derive(Debug)]
pub struct WorkerPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..threads)
            .map(|index| {
                let receiver: Arc<Mutex<Receiver<Job>>> = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("gcnrl-exec-{index}"))
                    .spawn(move || loop {
                        let job = {
                            let guard = receiver.lock().expect("pool receiver lock");
                            guard.recv()
                        };
                        match job {
                            Ok(job) => {
                                // Swallow the panic here; the job itself is
                                // responsible for reporting failure (e.g. by
                                // dropping its result sender).
                                let _ = catch_unwind(AssertUnwindSafe(job));
                            }
                            Err(_) => return, // pool dropped
                        }
                    })
                    .expect("spawn gcnrl-exec worker")
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            workers,
        }
    }

    /// Enqueues one job.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.sender
            .as_ref()
            .expect("pool sender alive until drop")
            .send(Box::new(job))
            .expect("pool workers alive until drop");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel makes every worker's recv() fail and return.
        drop(self.sender.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn all_jobs_run_across_threads() {
        let pool = WorkerPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = channel();
        for _ in 0..64 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            pool.execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
                tx.send(()).unwrap();
            });
        }
        drop(tx);
        for _ in 0..64 {
            rx.recv().expect("job completion");
        }
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn a_panicking_job_does_not_kill_the_pool() {
        let pool = WorkerPool::new(2);
        let (tx, rx) = channel();
        pool.execute(|| panic!("job panic"));
        let tx2 = tx.clone();
        pool.execute(move || tx2.send(7).unwrap());
        drop(tx);
        assert_eq!(rx.recv().unwrap(), 7);
    }

    #[test]
    fn drop_joins_cleanly_with_pending_work_done() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(3);
            for _ in 0..30 {
                let counter = Arc::clone(&counter);
                pool.execute(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        // Drop drains the queue before joining (workers loop until recv fails).
        assert_eq!(counter.load(Ordering::SeqCst), 30);
    }
}
