//! Offline stand-in for the `crossbeam` crate.
//!
//! Only [`channel`] is provided: multi-producer multi-consumer channels
//! with clonable senders *and* receivers, bounded backpressure, timeouts
//! and disconnect detection — the subset the SDG runtime uses. The
//! implementation is a `Mutex<VecDeque>` with two condvars; adequate for
//! the worker fan-out sizes the runtime deploys (tens of threads), if not
//! for crossbeam's lock-free throughput. A condvar is signalled only when
//! a thread waits on it (counted under the lock): a futex `notify_one`
//! is a syscall even when nobody sleeps.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        /// Signalled when an item is pushed (wakes receivers).
        not_empty: Condvar,
        /// Signalled when an item is popped or a side disconnects (wakes
        /// bounded senders).
        not_full: Condvar,
    }

    struct Inner<T> {
        queue: VecDeque<T>,
        cap: Option<usize>,
        senders: usize,
        receivers: usize,
        /// Receivers waiting on `not_empty`.
        waiting_receivers: usize,
        /// Senders blocked on `not_full`.
        blocked_senders: usize,
    }

    impl<T> Shared<T> {
        /// Unlocks after a pop, waking one blocked sender (if any) for the
        /// freed slot.
        fn slot_freed(&self, inner: MutexGuard<'_, Inner<T>>) {
            let wake = inner.blocked_senders > 0;
            drop(inner);
            if wake {
                self.not_full.notify_one();
            }
        }
    }

    /// The sending half of a channel.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of a channel.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Error returned when sending on a channel with no receivers left.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty, disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The wait hit the deadline with the channel still empty.
        Timeout,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// Creates a bounded channel: `send` blocks while `cap` items queue.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(Some(cap.max(1)))
    }

    fn with_capacity<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                cap,
                senders: 1,
                receivers: 1,
                waiting_receivers: 0,
                blocked_senders: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Sends `value`, blocking while a bounded channel is full.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if inner.receivers == 0 {
                    return Err(SendError(value));
                }
                match inner.cap {
                    Some(cap) if inner.queue.len() >= cap => {
                        inner.blocked_senders += 1;
                        inner = self
                            .shared
                            .not_full
                            .wait(inner)
                            .unwrap_or_else(|e| e.into_inner());
                        inner.blocked_senders -= 1;
                    }
                    _ => break,
                }
            }
            inner.queue.push_back(value);
            let wake = inner.waiting_receivers > 0;
            drop(inner);
            if wake {
                self.shared.not_empty.notify_one();
            }
            Ok(())
        }

        /// Number of queued items (racy, for monitoring only).
        pub fn len(&self) -> usize {
            self.shared
                .inner
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .queue
                .len()
        }

        /// `true` when no items are queued (racy, for monitoring only).
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Receiver<T> {
        /// Receives an item, blocking until one arrives or all senders are
        /// dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    self.shared.slot_freed(inner);
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvError);
                }
                inner.waiting_receivers += 1;
                inner = self
                    .shared
                    .not_empty
                    .wait(inner)
                    .unwrap_or_else(|e| e.into_inner());
                inner.waiting_receivers -= 1;
            }
        }

        /// Receives an item, waiting at most `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    self.shared.slot_freed(inner);
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                inner.waiting_receivers += 1;
                let (guard, res) = self
                    .shared
                    .not_empty
                    .wait_timeout(inner, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                inner = guard;
                inner.waiting_receivers -= 1;
                if res.timed_out() && inner.queue.is_empty() {
                    return Err(RecvTimeoutError::Timeout);
                }
            }
        }

        /// Receives an item if one is immediately available.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(v) = inner.queue.pop_front() {
                self.shared.slot_freed(inner);
                return Ok(v);
            }
            if inner.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Number of queued items (racy, for monitoring only).
        pub fn len(&self) -> usize {
            self.shared
                .inner
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .queue
                .len()
        }

        /// `true` when no items are queued (racy, for monitoring only).
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared
                .inner
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared
                .inner
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let remaining = {
                let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
                inner.senders -= 1;
                inner.senders
            };
            if remaining == 0 {
                // Wake receivers blocked on an empty queue so they observe
                // the disconnect.
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let remaining = {
                let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
                inner.receivers -= 1;
                inner.receivers
            };
            if remaining == 0 {
                // Wake senders blocked on a full queue so they observe the
                // disconnect.
                self.shared.not_full.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "Sender {{ len: {} }}", self.len())
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "Receiver {{ len: {} }}", self.len())
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::thread;

        #[test]
        fn unbounded_roundtrip_across_threads() {
            let (tx, rx) = unbounded();
            let h = thread::spawn(move || {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            let got: Vec<i32> = (0..100).map(|_| rx.recv().unwrap()).collect();
            h.join().unwrap();
            assert_eq!(got, (0..100).collect::<Vec<_>>());
        }

        #[test]
        fn recv_reports_disconnect() {
            let (tx, rx) = unbounded::<i32>();
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn bounded_send_blocks_until_popped() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let h = thread::spawn(move || {
                tx.send(2).unwrap(); // Blocks until the first item is taken.
                tx.len()
            });
            assert_eq!(rx.recv().unwrap(), 1);
            assert_eq!(rx.recv().unwrap(), 2);
            h.join().unwrap();
        }

        #[test]
        fn recv_timeout_times_out_then_delivers() {
            let (tx, rx) = unbounded();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            tx.send(7).unwrap();
            assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(7));
        }

        #[test]
        fn send_to_dropped_receiver_fails() {
            let (tx, rx) = bounded(1);
            drop(rx);
            assert_eq!(tx.send(9), Err(SendError(9)));
        }

        /// Waits until exactly `receivers` receivers and `senders` senders
        /// wait on the channel's condvars, so a test wakes a thread that
        /// is really asleep.
        fn until_parked<T>(shared: &Shared<T>, receivers: usize, senders: usize) {
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let inner = shared.inner.lock().unwrap();
                if inner.waiting_receivers == receivers && inner.blocked_senders == senders {
                    return;
                }
                drop(inner);
                assert!(Instant::now() < deadline, "thread never parked");
                thread::sleep(Duration::from_millis(1));
            }
        }

        #[test]
        fn send_wakes_a_blocked_recv() {
            let (tx, rx) = unbounded();
            let shared = Arc::clone(&rx.shared);
            let h = thread::spawn(move || rx.recv());
            until_parked(&shared, 1, 0);
            tx.send(5).unwrap();
            assert_eq!(h.join().unwrap(), Ok(5));
            assert_eq!(shared.inner.lock().unwrap().waiting_receivers, 0);
        }

        #[test]
        fn send_wakes_a_waiting_recv_timeout() {
            let (tx, rx) = unbounded();
            let shared = Arc::clone(&rx.shared);
            let h = thread::spawn(move || {
                let t0 = Instant::now();
                (rx.recv_timeout(Duration::from_secs(30)), t0.elapsed())
            });
            until_parked(&shared, 1, 0);
            tx.send(6).unwrap();
            let (got, waited) = h.join().unwrap();
            assert_eq!(got, Ok(6));
            assert!(
                waited < Duration::from_secs(10),
                "woken by the send, not the timeout"
            );
        }

        #[test]
        fn recv_wakes_a_blocked_bounded_send() {
            let (tx, rx) = bounded(1);
            let shared = Arc::clone(&tx.shared);
            tx.send(1).unwrap();
            let h = thread::spawn(move || tx.send(2));
            until_parked(&shared, 0, 1);
            assert_eq!(rx.try_recv(), Ok(1));
            assert_eq!(h.join().unwrap(), Ok(()));
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(shared.inner.lock().unwrap().blocked_senders, 0);
        }

        #[test]
        fn cloned_receivers_share_the_queue() {
            let (tx, rx1) = unbounded();
            let rx2 = rx1.clone();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            let a = rx1.recv().unwrap();
            let b = rx2.recv().unwrap();
            assert_eq!(a + b, 3);
        }
    }
}
