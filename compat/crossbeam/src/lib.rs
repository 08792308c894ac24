//! Minimal offline stand-in for `crossbeam`: an MPMC unbounded channel
//! (clonable senders *and* receivers) with blocking, deadline-bounded
//! and non-blocking receives. Like the real crate, a send with no
//! receiver parked is free: the channel counts its parked receivers and
//! skips the wake syscall at zero.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    struct Chan<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        /// Receivers parked on `ready`. Registered under the queue lock
        /// before parking, so a sender that pushed under that lock (or
        /// bracketed it) never misses a parked receiver.
        parked: AtomicUsize,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    impl<T> Chan<T> {
        /// Parks on `ready` until notified or `timeout` passes, keeping
        /// the parked count; `None` waits without a deadline.
        fn park<'a>(
            &self,
            q: MutexGuard<'a, VecDeque<T>>,
            timeout: Option<Duration>,
        ) -> MutexGuard<'a, VecDeque<T>> {
            self.parked.fetch_add(1, Ordering::SeqCst);
            let q = match timeout {
                None => self.ready.wait(q).expect("channel poisoned"),
                Some(t) => self.ready.wait_timeout(q, t).expect("channel poisoned").0,
            };
            self.parked.fetch_sub(1, Ordering::SeqCst);
            q
        }
    }

    /// Sending half of an unbounded MPMC channel.
    pub struct Sender<T>(Arc<Chan<T>>);

    /// Receiving half of an unbounded MPMC channel.
    pub struct Receiver<T>(Arc<Chan<T>>);

    /// Error: all receivers dropped; returns the unsent value.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error: channel empty and all senders dropped.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Result of a deadline-bounded receive attempt.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The deadline passed with no message queued.
        Timeout,
        /// No message queued and all senders dropped.
        Disconnected,
    }

    /// Result of a non-blocking receive attempt.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message currently queued.
        Empty,
        /// No message queued and all senders dropped.
        Disconnected,
    }

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            parked: AtomicUsize::new(0),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (Sender(Arc::clone(&chan)), Receiver(chan))
    }

    impl<T> Sender<T> {
        /// Enqueues `value`; fails only when every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if self.0.receivers.load(Ordering::SeqCst) == 0 {
                return Err(SendError(value));
            }
            let mut q = self.0.queue.lock().expect("channel poisoned");
            q.push_back(value);
            drop(q);
            if self.0.parked.load(Ordering::SeqCst) > 0 {
                self.0.ready.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.senders.fetch_add(1, Ordering::SeqCst);
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.0.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Wake blocked receivers so they observe disconnection.
                // The sender count is not written under the queue lock,
                // so bracket the lock between the store and the notify:
                // a receiver between its count check and its park holds
                // the lock, and the bracket waits until it is parked.
                drop(self.0.queue.lock());
                if self.0.parked.load(Ordering::SeqCst) > 0 {
                    self.0.ready.notify_all();
                }
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = self.0.queue.lock().expect("channel poisoned");
            loop {
                if let Some(v) = q.pop_front() {
                    return Ok(v);
                }
                if self.0.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvError);
                }
                q = self.0.park(q, None);
            }
        }

        /// Blocks until a message arrives, every sender is gone, or
        /// `deadline` passes — the wait primitive behind the live
        /// runtime's client-side timeout timers.
        pub fn recv_deadline(&self, deadline: Instant) -> Result<T, RecvTimeoutError> {
            let mut q = self.0.queue.lock().expect("channel poisoned");
            loop {
                if let Some(v) = q.pop_front() {
                    return Ok(v);
                }
                if self.0.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let Some(remaining) = deadline
                    .checked_duration_since(Instant::now())
                    .filter(|d| !d.is_zero())
                else {
                    return Err(RecvTimeoutError::Timeout);
                };
                q = self.0.park(q, Some(remaining));
            }
        }

        /// [`Receiver::recv_deadline`] with a relative duration.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.recv_deadline(Instant::now() + timeout)
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut q = self.0.queue.lock().expect("channel poisoned");
            if let Some(v) = q.pop_front() {
                return Ok(v);
            }
            if self.0.senders.load(Ordering::SeqCst) == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }

        /// Queued message count.
        pub fn len(&self) -> usize {
            self.0.queue.lock().expect("channel poisoned").len()
        }

        /// Whether no messages are queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Receivers currently parked on this channel (test probe for
        /// forcing park-then-wake interleavings without sleeps).
        #[cfg(test)]
        pub(crate) fn parked_receivers(&self) -> usize {
            self.0.parked.load(Ordering::SeqCst)
        }

        /// Blocking iterator: yields until the channel disconnects.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.receivers.fetch_add(1, Ordering::SeqCst);
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.0.receivers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// Iterator over received messages (see [`Receiver::iter`]).
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<'a, T> Iterator for Iter<'a, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;
        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, RecvError};

    #[test]
    fn mpmc_round_trip_and_disconnect() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        let rx2 = rx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx2.recv(), Ok(2));
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn recv_deadline_times_out_and_delivers() {
        use super::channel::RecvTimeoutError;
        use std::time::{Duration, Instant};
        let (tx, rx) = unbounded::<u32>();
        // Empty channel with a live sender: the deadline fires.
        let t0 = Instant::now();
        assert_eq!(
            rx.recv_deadline(t0 + Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        assert!(t0.elapsed() >= Duration::from_millis(10));
        // A queued message is delivered without waiting out the deadline.
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(9));
        // All senders gone: disconnection, not a timeout.
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    /// Runs `receive` on a thread, waits until that thread is parked
    /// inside the channel, then runs `act` on the only sender. The
    /// interleaving is forced by the parked count, never by a sleep;
    /// whatever `act` returns stays alive until the receiver reports, so
    /// a lost send cannot be rescued by a later disconnect wake.
    fn park_then<R: Send + 'static, K>(
        receive: impl FnOnce(&super::channel::Receiver<u32>) -> R + Send + 'static,
        act: impl FnOnce(super::channel::Sender<u32>) -> K,
    ) -> R {
        use std::time::Duration;
        let (tx, rx) = unbounded::<u32>();
        let probe = rx.clone();
        let (out_tx, out_rx) = std::sync::mpsc::channel();
        let receiver = std::thread::spawn(move || out_tx.send(receive(&rx)).unwrap());
        while probe.parked_receivers() == 0 {
            std::thread::yield_now();
        }
        let keep = act(tx);
        // The timeout only turns a lost wakeup into a failure instead of
        // a hung test run.
        let got = out_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("parked receiver was never woken");
        drop(keep);
        receiver.join().unwrap();
        assert_eq!(probe.parked_receivers(), 0);
        got
    }

    #[test]
    fn parked_recv_wakes_on_send() {
        let got = park_then(
            |rx| rx.recv(),
            |tx| {
                tx.send(5).unwrap();
                tx
            },
        );
        assert_eq!(got, Ok(5));
    }

    #[test]
    fn parked_recv_wakes_on_last_sender_drop() {
        assert_eq!(park_then(|rx| rx.recv(), drop), Err(RecvError));
    }

    #[test]
    fn parked_recv_deadline_wakes_on_send() {
        use std::time::{Duration, Instant};
        let got = park_then(
            |rx| rx.recv_deadline(Instant::now() + Duration::from_secs(60)),
            |tx| {
                tx.send(6).unwrap();
                tx
            },
        );
        assert_eq!(got, Ok(6));
    }

    #[test]
    fn parked_recv_deadline_wakes_on_last_sender_drop() {
        use super::channel::RecvTimeoutError;
        use std::time::{Duration, Instant};
        let got = park_then(
            |rx| rx.recv_deadline(Instant::now() + Duration::from_secs(60)),
            drop,
        );
        assert_eq!(got, Err(RecvTimeoutError::Disconnected));
    }
}
