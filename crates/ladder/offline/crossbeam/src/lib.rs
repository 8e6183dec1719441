//! Offline stand-in for `crossbeam::channel`'s bounded channel: a
//! `VecDeque` behind a `Mutex` with two `Condvar`s. Same disconnect rules
//! as the published crate (a receive fails once every sender is gone *and*
//! the queue is empty; a send fails once every receiver is gone), none of
//! its lock-free speed.

/// Multi-producer multi-consumer channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        cap: usize,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Chan<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            // No update leaves the state half-written, so a poisoned lock
            // is still safe to use.
            self.state.lock().unwrap_or_else(|p| p.into_inner())
        }
    }

    /// The sending half; clone for more producers.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// The receiving half; clone for more consumers.
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// A channel holding at most `cap` messages (at least one).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State { queue: VecDeque::new(), senders: 1, receivers: 1 }),
            cap: cap.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender { chan: Arc::clone(&chan) }, Receiver { chan })
    }

    /// The message could not be sent: every receiver is gone.
    pub struct SendError<T>(pub T);

    /// Why `try_send` gave the message back.
    pub enum TrySendError<T> {
        /// The channel is at capacity.
        Full(T),
        /// Every receiver is gone.
        Disconnected(T),
    }

    /// Every sender is gone and the queue is empty.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Why `try_recv` returned nothing.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Nothing queued right now.
        Empty,
        /// Every sender is gone and the queue is empty.
        Disconnected,
    }

    /// Why `recv_timeout` returned nothing.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// Nothing arrived in time.
        Timeout,
        /// Every sender is gone and the queue is empty.
        Disconnected,
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                Self::Full(_) => f.write_str("Full(..)"),
                Self::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    impl<T> Sender<T> {
        /// Blocks while the channel is full.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut st = self.chan.lock();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(msg));
                }
                if st.queue.len() < self.chan.cap {
                    st.queue.push_back(msg);
                    drop(st);
                    self.chan.not_empty.notify_one();
                    return Ok(());
                }
                st = self.chan.not_full.wait(st).unwrap_or_else(|p| p.into_inner());
            }
        }

        /// Sends without blocking.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let mut st = self.chan.lock();
            if st.receivers == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            if st.queue.len() >= self.chan.cap {
                return Err(TrySendError::Full(msg));
            }
            st.queue.push_back(msg);
            drop(st);
            self.chan.not_empty.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        fn pop(&self, st: &mut MutexGuard<'_, State<T>>) -> Option<T> {
            let msg = st.queue.pop_front();
            if msg.is_some() {
                self.chan.not_full.notify_one();
            }
            msg
        }

        /// Blocks until a message or disconnection.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.chan.lock();
            loop {
                if let Some(msg) = self.pop(&mut st) {
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.chan.not_empty.wait(st).unwrap_or_else(|p| p.into_inner());
            }
        }

        /// Receives without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.chan.lock();
            match self.pop(&mut st) {
                Some(msg) => Ok(msg),
                None if st.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Blocks for at most `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.chan.lock();
            loop {
                if let Some(msg) = self.pop(&mut st) {
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                st = self
                    .chan
                    .not_empty
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(|p| p.into_inner())
                    .0;
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan.lock().senders += 1;
            Self { chan: Arc::clone(&self.chan) }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.chan.lock().receivers += 1;
            Self { chan: Arc::clone(&self.chan) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.chan.lock();
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                self.chan.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.chan.lock();
            st.receivers -= 1;
            if st.receivers == 0 {
                drop(st);
                self.chan.not_full.notify_all();
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn capacity_order_and_disconnects() {
            let (tx, rx) = bounded::<u32>(2);
            tx.send(1).unwrap();
            tx.try_send(2).unwrap();
            assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.try_recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
            assert_eq!(rx.recv_timeout(Duration::from_millis(1)), Err(RecvTimeoutError::Timeout));
            let tx2 = tx.clone();
            drop(tx);
            tx2.send(4).unwrap();
            drop(tx2);
            assert_eq!(rx.recv(), Ok(4));
            assert_eq!(rx.recv(), Err(RecvError));
            let (tx, rx) = bounded::<u32>(1);
            drop(rx);
            assert!(tx.send(1).is_err());
        }

        #[test]
        fn blocked_sender_wakes_when_space_frees() {
            let (tx, rx) = bounded::<u32>(1);
            tx.send(1).unwrap();
            let t = std::thread::spawn(move || tx.send(2).is_ok());
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            assert!(t.join().unwrap());
        }
    }
}
