//! Offline shim for the `crossbeam` crate: an unbounded MPMC channel
//! built on `Mutex<VecDeque>` + `Condvar`. Only the operations the
//! workspace uses are provided (`send`, `recv`, `recv_timeout`,
//! `try_recv`, `try_iter`).

/// Multi-producer multi-consumer channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Duration;

    struct Shared<T> {
        queue: Mutex<State<T>>,
        ready: Condvar,
    }

    struct State<T> {
        items: VecDeque<T>,
        senders: usize,
    }

    /// The sending half of an unbounded channel.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of an unbounded channel. Cloning (as in
    /// upstream crossbeam) yields another consumer of the same queue:
    /// each item is delivered to exactly one receiver.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    /// Error returned when every receiver is gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// Every sender is gone and the queue is drained.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv`] / [`Receiver::recv_timeout`].
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum RecvError {
        /// Every sender is gone and the queue is drained.
        Disconnected,
        /// The timeout elapsed with the channel still empty.
        Timeout,
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(State {
                items: VecDeque::new(),
                senders: 1,
            }),
            ready: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    fn lock<T>(shared: &Shared<T>) -> std::sync::MutexGuard<'_, State<T>> {
        shared
            .queue
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    impl<T> Sender<T> {
        /// Enqueues a value (never blocks; the channel is unbounded).
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = lock(&self.shared);
            state.items.push_back(value);
            drop(state);
            self.shared.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            lock(&self.shared).senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            lock(&self.shared).senders -= 1;
            self.shared.ready.notify_all();
        }
    }

    impl<T> Receiver<T> {
        /// Dequeues without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = lock(&self.shared);
            match state.items.pop_front() {
                Some(v) => Ok(v),
                None if state.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Blocks until a value arrives or every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = lock(&self.shared);
            loop {
                if let Some(v) = state.items.pop_front() {
                    return Ok(v);
                }
                if state.senders == 0 {
                    return Err(RecvError::Disconnected);
                }
                state = self
                    .shared
                    .ready
                    .wait(state)
                    .unwrap_or_else(|poison| poison.into_inner());
            }
        }

        /// Blocks up to `timeout` for a value.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvError> {
            let deadline = std::time::Instant::now() + timeout;
            let mut state = lock(&self.shared);
            loop {
                if let Some(v) = state.items.pop_front() {
                    return Ok(v);
                }
                if state.senders == 0 {
                    return Err(RecvError::Disconnected);
                }
                let now = std::time::Instant::now();
                if now >= deadline {
                    return Err(RecvError::Timeout);
                }
                let (guard, _) = self
                    .shared
                    .ready
                    .wait_timeout(state, deadline - now)
                    .unwrap_or_else(|poison| poison.into_inner());
                state = guard;
            }
        }

        /// Drains currently queued values without blocking.
        pub fn try_iter(&self) -> TryIter<'_, T> {
            TryIter { receiver: self }
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    /// Iterator over values available right now.
    pub struct TryIter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.receiver.try_recv().ok()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_try_iter_roundtrip() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.try_iter().collect::<Vec<i32>>(), vec![1, 2]);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
            drop(tx);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn cross_thread_delivery() {
            let (tx, rx) = unbounded();
            let t = std::thread::spawn(move || tx.send(42).unwrap());
            assert_eq!(rx.recv(), Ok(42));
            t.join().unwrap();
            assert_eq!(rx.recv(), Err(RecvError::Disconnected));
        }
    }
}
