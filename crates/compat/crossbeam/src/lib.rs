//! Offline shim for the `crossbeam` crate: an unbounded channel built
//! on `Mutex<VecDeque>`. Only the operations the workspace uses are
//! provided (`send`, `try_recv`, `try_iter`) — nothing here blocks.

/// Multi-producer channels (upstream's `crossbeam::channel` paths).
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Mutex};

    struct Shared<T> {
        queue: Mutex<State<T>>,
    }

    struct State<T> {
        items: VecDeque<T>,
        senders: usize,
    }

    /// The sending half of an unbounded channel.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of an unbounded channel.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
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

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(State {
                items: VecDeque::new(),
                senders: 1,
            }),
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
            lock(&self.shared).items.push_back(value);
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
            t.join().unwrap();
            assert_eq!(rx.try_recv(), Ok(42));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }
    }
}
