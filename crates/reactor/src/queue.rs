//! Bounded request admission and dispatch: the backpressure heart of
//! the reactor.
//!
//! One [`ServeQueue`] sits between the event loop (producer: admits
//! decoded requests) and the executor threads (consumers: run the
//! service and complete slots). It enforces the **global** in-flight
//! bound — admission fails with [`Push::GlobalFull`] so the reactor can
//! shed the request with a typed `Overloaded` response instead of
//! stalling — and tracks **per-connection** in-flight counts the
//! reactor consults to stop reading a socket whose pipeline is full
//! (backpressure).
//!
//! A slot stays occupied from admission until
//! [`complete`](ServeQueue::complete), which may happen *after* the
//! connection that issued the request has closed — the queue-full /
//! connection-close race the `semtree-conc` model checker explores. The
//! invariant: every admitted slot is released exactly once, so the
//! global count never underflows and drains to zero.
//!
//! Generic over the concurrency shim; production uses [`StdShim`].

use std::collections::{HashMap, VecDeque};

use semtree_conc::shim::{Shim, StdShim};

/// Outcome of [`ServeQueue::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Push {
    /// The request was admitted and queued for an executor.
    Granted,
    /// The global in-flight bound is reached — shed this request.
    GlobalFull,
    /// The queue has shut down — drop the request.
    Closed,
}

#[derive(Debug)]
struct QueueState<T> {
    jobs: VecDeque<(u64, T)>,
    /// Admitted-but-not-completed slots across all connections.
    global: usize,
    /// Per-connection admitted-but-not-completed counts. An entry is
    /// removed when its connection closes; late completions then only
    /// release the global slot.
    per_conn: HashMap<u64, usize>,
    /// Executors blocked on the condvar in
    /// [`pop`](ServeQueue::pop). Counted under the mutex
    /// the wait releases, so a notifier that reads zero has nobody to
    /// wake: whoever parks later re-checks the state first.
    parked: usize,
    closed: bool,
    /// A release was attempted on an empty slot count — a bookkeeping
    /// bug. Never set in a correct reactor; the model checker asserts
    /// on it.
    underflowed: bool,
}

/// Bounded multi-producer/multi-consumer job queue with per-connection
/// accounting (see module docs).
#[derive(Debug)]
pub struct ServeQueue<T: Send + 'static, S: Shim = StdShim> {
    inner: S::Mutex<QueueState<T>>,
    cv: S::Condvar,
    global_cap: usize,
}

impl<T: Send + 'static, S: Shim> ServeQueue<T, S> {
    /// An empty queue admitting at most `global_cap` in-flight requests.
    #[must_use]
    pub fn new(global_cap: usize) -> Self {
        ServeQueue {
            inner: S::mutex(QueueState {
                jobs: VecDeque::new(),
                global: 0,
                per_conn: HashMap::new(),
                parked: 0,
                closed: false,
                underflowed: false,
            }),
            cv: S::condvar(),
            global_cap: global_cap.max(1),
        }
    }

    /// Admit one request from connection `conn` and queue it for an
    /// executor. On [`Push::Granted`] the caller owes exactly one
    /// [`complete`](Self::complete) for the slot.
    pub fn push(&self, conn: u64, job: T) -> Push {
        let parked = {
            let mut st = S::lock(&self.inner);
            if st.closed {
                return Push::Closed;
            }
            if st.global >= self.global_cap {
                return Push::GlobalFull;
            }
            st.global += 1;
            *st.per_conn.entry(conn).or_insert(0) += 1;
            st.jobs.push_back((conn, job));
            st.parked
        };
        if parked > 0 {
            S::notify_one(&self.cv);
        }
        Push::Granted
    }

    /// Take the next queued job, blocking until one arrives. `None`
    /// means the queue has shut down and drained — the executor should
    /// exit. Popping does **not** release the slot; the job is still
    /// in flight until [`complete`](Self::complete).
    pub fn pop(&self) -> Option<(u64, T)> {
        let mut st = S::lock(&self.inner);
        loop {
            if let Some(job) = st.jobs.pop_front() {
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st.parked += 1;
            st = S::wait(&self.cv, st, &self.inner);
            st.parked -= 1;
        }
    }

    /// Release the slot admitted for connection `conn`. Safe to call
    /// after [`close_conn`](Self::close_conn) — the global slot is
    /// still released exactly once.
    pub fn complete(&self, conn: u64) {
        let mut st = S::lock(&self.inner);
        if let Some(g) = st.global.checked_sub(1) {
            st.global = g;
        } else {
            st.underflowed = true;
        }
        if let Some(count) = st.per_conn.get_mut(&conn) {
            if let Some(c) = count.checked_sub(1) {
                *count = c;
            } else {
                st.underflowed = true;
            }
        }
    }

    /// Forget connection `conn`'s per-connection accounting (it
    /// closed). In-flight jobs it admitted still hold their global
    /// slots until their executors call [`complete`](Self::complete).
    pub fn close_conn(&self, conn: u64) {
        S::lock(&self.inner).per_conn.remove(&conn);
    }

    /// In-flight requests admitted for `conn` (zero once closed).
    #[must_use]
    pub fn conn_in_flight(&self, conn: u64) -> usize {
        S::lock(&self.inner)
            .per_conn
            .get(&conn)
            .copied()
            .unwrap_or(0)
    }

    /// Total in-flight requests (queued + executing).
    #[must_use]
    pub fn global_in_flight(&self) -> usize {
        S::lock(&self.inner).global
    }

    /// Did a slot release ever underflow? Always `false` unless the
    /// admission/completion pairing is broken (model-checked).
    #[must_use]
    pub fn underflowed(&self) -> bool {
        S::lock(&self.inner).underflowed
    }

    /// Stop admitting and wake every parked executor; queued jobs are
    /// still handed out so their slots can complete.
    pub fn shutdown(&self) {
        S::lock(&self.inner).closed = true;
        S::notify_all(&self.cv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    type Q = ServeQueue<u32, StdShim>;

    #[test]
    fn admission_respects_the_global_cap() {
        let q = Q::new(2);
        assert_eq!(q.push(1, 10), Push::Granted);
        assert_eq!(q.push(2, 20), Push::Granted);
        assert_eq!(q.push(1, 30), Push::GlobalFull);
        assert_eq!(q.global_in_flight(), 2);
        assert_eq!(q.conn_in_flight(1), 1);
        // Completing frees a slot for new admissions.
        let (conn, job) = q.pop().unwrap();
        assert_eq!((conn, job), (1, 10));
        q.complete(conn);
        assert_eq!(q.push(1, 30), Push::Granted);
    }

    #[test]
    fn complete_after_close_releases_the_global_slot_once() {
        let q = Q::new(4);
        assert_eq!(q.push(7, 1), Push::Granted);
        assert_eq!(q.push(7, 2), Push::Granted);
        q.close_conn(7);
        assert_eq!(q.conn_in_flight(7), 0);
        assert_eq!(q.global_in_flight(), 2);
        q.complete(7);
        q.complete(7);
        assert_eq!(q.global_in_flight(), 0);
        assert!(!q.underflowed());
    }

    #[test]
    fn shutdown_unblocks_poppers_after_draining() {
        let q = Arc::new(Q::new(4));
        assert_eq!(q.push(1, 5), Push::Granted);
        let q2 = Arc::clone(&q);
        let worker = std::thread::spawn(move || {
            let mut seen = Vec::new();
            while let Some((conn, job)) = q2.pop() {
                seen.push(job);
                q2.complete(conn);
            }
            seen
        });
        q.shutdown();
        assert_eq!(worker.join().unwrap(), vec![5]);
        assert_eq!(q.global_in_flight(), 0);
    }
}
