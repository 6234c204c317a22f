//! The accept thread shared by [`EvalServer`](crate::EvalServer) and
//! [`MetricsHttpServer`](crate::MetricsHttpServer): it blocks in `accept`
//! and hands every connection to a callback; stopping it wakes the blocked
//! `accept` by connecting to the listener's own address.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A running accept thread; [`AcceptLoop::stop`] (also run on drop) closes
/// the listener.
pub(crate) struct AcceptLoop {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl AcceptLoop {
    /// Spawns a thread named `name` that hands every connection `listener`
    /// accepts to `serve`, until [`stop`](Self::stop).
    pub(crate) fn spawn(
        listener: TcpListener,
        name: &str,
        mut serve: impl FnMut(TcpStream, SocketAddr) + Send + 'static,
    ) -> io::Result<Self> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(name.to_owned())
                .spawn(move || loop {
                    let accepted = listener.accept();
                    // The stop wake-up (or a client arriving with it) is
                    // dropped unserved.
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    match accepted {
                        Ok((stream, peer)) => serve(stream, peer),
                        // Transient failure (e.g. EMFILE): back off briefly.
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                })?
        };
        Ok(AcceptLoop {
            addr,
            stop,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// The listening address (with the concrete port when bound
    /// ephemerally).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the thread; the listener is closed (its
    /// port free) when this returns. Idempotent.
    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let Some(thread) = self.thread.lock().expect("accept thread lock").take() else {
            return;
        };
        let _ = TcpStream::connect(self.addr);
        let _ = thread.join();
    }
}

impl Drop for AcceptLoop {
    fn drop(&mut self) {
        self.stop();
    }
}
