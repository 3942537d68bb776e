//! Loom-style deterministic scheduler.
//!
//! Threads under the model are real OS threads, but only one is ever
//! *active*: every shim operation first yields to the central scheduler
//! (`Execution`), which picks the next thread to run from the enabled
//! set according to a decision sequence. Re-running with the same
//! decisions reproduces the identical execution — that is what makes a
//! printed seed replayable — and enumerating decision sequences (see
//! [`crate::explore`]) visits distinct interleavings exhaustively.
//!
//! Model semantics:
//! - **Timed waits** never sleep. A thread parked in `wait_timeout` adds
//!   an always-enabled scheduling choice "fire this timeout", which
//!   advances a logical nanosecond clock to the wait's deadline and
//!   wakes the thread with `timed_out = true`.
//! - **Spurious wakeups** are scheduling choices too, with a small
//!   per-execution budget, so predicate loops are exercised without
//!   making the tree unbounded.
//! - **Deadlock** (no enabled choice while threads remain) is a model
//!   failure, reported with every thread's blocked state.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, PoisonError};

mod shim_impl;

pub use shim_impl::{
    ModelAtomicU64, ModelCondvar, ModelGuard, ModelJoinHandle, ModelMutex, ModelShim,
};

/// Panic payload used to unwind managed threads when an execution
/// aborts (failure found, or another thread panicked). Caught by the
/// per-thread `catch_unwind`; never escapes the model.
struct ModelAbort;

/// Operation codes folded into the execution fingerprint.
mod op {
    pub const ACQUIRE: u8 = 1;
    pub const RELEASE: u8 = 2;
    pub const WAIT: u8 = 3;
    pub const WAKE: u8 = 4;
    pub const NOTIFY: u8 = 5;
    pub const ATOMIC: u8 = 6;
    pub const SPAWN: u8 = 7;
    pub const JOIN: u8 = 8;
    pub const FINISH: u8 = 9;
    pub const YIELD: u8 = 10;
}

/// How the scheduler resolves branch points past the replay prefix.
#[derive(Debug, Clone)]
pub(crate) enum Mode {
    /// Always take option 0 (the explorer increments the prefix between
    /// runs to walk the whole tree).
    Dfs,
    /// SplitMix64-driven choices.
    Random { state: u64 },
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    BlockedMutex(u64),
    BlockedCondvar { cv: u64, deadline: Option<u64> },
    BlockedJoin(usize),
    Finished,
}

#[derive(Debug)]
struct ThreadInfo {
    status: Status,
    /// Set when the thread was woken from a condvar by the timeout
    /// choice (as opposed to a notify or a spurious wake).
    wake_timed_out: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Choice {
    Run(usize),
    FireTimeout(usize),
    Spurious(usize),
}

pub(crate) struct SchedState {
    threads: Vec<ThreadInfo>,
    active: Option<usize>,
    clock: u64,
    spurious_budget: u32,
    prefix: Vec<u32>,
    mode: Mode,
    /// Every branch taken this run: (chosen index, arity). Forced moves
    /// (arity 1) are not recorded — they cannot branch.
    decisions: Vec<(u32, u32)>,
    /// FNV-1a running hash over (tid, op, object) events.
    fingerprint: u64,
    ops: usize,
    failure: Option<String>,
    aborting: bool,
    completed: bool,
    next_object_id: u64,
    mutex_owners: HashMap<u64, usize>,
    os_handles: Vec<std::thread::JoinHandle<()>>,
}

/// One model execution: scheduler state plus the condvar every managed
/// thread parks on.
pub(crate) struct Execution {
    state: std::sync::Mutex<SchedState>,
    cv: std::sync::Condvar,
}

/// Outcome of a single execution, consumed by the explorer.
#[derive(Debug, Clone)]
pub(crate) struct ExecOutcome {
    pub(crate) decisions: Vec<(u32, u32)>,
    pub(crate) fingerprint: u64,
    pub(crate) ops: usize,
    pub(crate) failure: Option<String>,
}

thread_local! {
    static CURRENT: std::cell::RefCell<Option<(Arc<Execution>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

fn current() -> (Arc<Execution>, usize) {
    CURRENT.with(|c| {
        c.borrow()
            .clone()
            .expect("model primitive used outside a model execution (use StdShim in production)")
    })
}

type StateGuard<'a> = std::sync::MutexGuard<'a, SchedState>;

impl Execution {
    fn new(prefix: Vec<u32>, mode: Mode, spurious_budget: u32) -> Self {
        Execution {
            state: std::sync::Mutex::new(SchedState {
                threads: Vec::new(),
                active: None,
                clock: 0,
                spurious_budget,
                prefix,
                mode,
                decisions: Vec::new(),
                fingerprint: 0xcbf2_9ce4_8422_2325,
                ops: 0,
                failure: None,
                aborting: false,
                completed: false,
                next_object_id: 0,
                mutex_owners: HashMap::new(),
                os_handles: Vec::new(),
            }),
            cv: std::sync::Condvar::new(),
        }
    }

    fn lock_state(&self) -> StateGuard<'_> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn alloc_object_id(&self) -> u64 {
        let mut st = self.lock_state();
        st.next_object_id += 1;
        st.next_object_id
    }

    fn record(st: &mut SchedState, tid: usize, opcode: u8, object: u64) {
        for byte in [tid as u64, u64::from(opcode), object] {
            st.fingerprint ^= byte;
            st.fingerprint = st.fingerprint.wrapping_mul(0x0000_0100_0000_01B3);
        }
        st.ops += 1;
    }

    fn enabled(st: &SchedState) -> Vec<Choice> {
        let mut options = Vec::new();
        for (tid, t) in st.threads.iter().enumerate() {
            if t.status == Status::Runnable {
                options.push(Choice::Run(tid));
            }
        }
        for (tid, t) in st.threads.iter().enumerate() {
            if let Status::BlockedCondvar {
                deadline: Some(_), ..
            } = t.status
            {
                options.push(Choice::FireTimeout(tid));
            }
        }
        if st.spurious_budget > 0 {
            for (tid, t) in st.threads.iter().enumerate() {
                if matches!(t.status, Status::BlockedCondvar { .. }) {
                    options.push(Choice::Spurious(tid));
                }
            }
        }
        options
    }

    fn fail(&self, st: &mut SchedState, message: String) {
        if st.failure.is_none() {
            st.failure = Some(message);
        }
        st.aborting = true;
        self.cv.notify_all();
    }

    /// Resolve the next scheduling choice and make that thread active.
    /// Must be called with `active == None`.
    fn pick_next(&self, st: &mut SchedState) {
        debug_assert!(st.active.is_none());
        if st.aborting || st.completed {
            self.cv.notify_all();
            return;
        }
        let options = Self::enabled(st);
        if options.is_empty() {
            if st.threads.iter().all(|t| t.status == Status::Finished) {
                st.completed = true;
                self.cv.notify_all();
                return;
            }
            let blocked: Vec<String> = st
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.status != Status::Finished)
                .map(|(tid, t)| format!("thread {tid}: {:?}", t.status))
                .collect();
            self.fail(
                st,
                format!("deadlock: no enabled thread [{}]", blocked.join("; ")),
            );
            return;
        }
        let index = if options.len() == 1 {
            0
        } else {
            let arity = u32::try_from(options.len()).unwrap_or(u32::MAX);
            let depth = st.decisions.len();
            let chosen = if depth < st.prefix.len() {
                let wanted = st.prefix[depth];
                if wanted >= arity {
                    self.fail(
                        st,
                        format!(
                            "replay diverged: decision {depth} wants option {wanted} \
                             but only {arity} are enabled"
                        ),
                    );
                    return;
                }
                wanted
            } else {
                match &mut st.mode {
                    Mode::Dfs => 0,
                    Mode::Random { state } => {
                        #[allow(clippy::cast_possible_truncation)]
                        {
                            (splitmix64(state) % u64::from(arity)) as u32
                        }
                    }
                }
            };
            st.decisions.push((chosen, arity));
            chosen as usize
        };
        match options[index] {
            Choice::Run(tid) => st.active = Some(tid),
            Choice::FireTimeout(tid) => {
                if let Status::BlockedCondvar {
                    deadline: Some(d), ..
                } = st.threads[tid].status
                {
                    st.clock = st.clock.max(d);
                }
                st.threads[tid].status = Status::Runnable;
                st.threads[tid].wake_timed_out = true;
                st.active = Some(tid);
            }
            Choice::Spurious(tid) => {
                st.spurious_budget -= 1;
                st.threads[tid].status = Status::Runnable;
                st.threads[tid].wake_timed_out = false;
                st.active = Some(tid);
            }
        }
        self.cv.notify_all();
    }

    /// Give up activity with `new_status`, let the scheduler pick the
    /// next thread, park until this thread is active again, and return
    /// the re-acquired state guard. Panics with [`ModelAbort`] when the
    /// execution is aborting.
    fn yield_to_scheduler<'a>(
        &'a self,
        mut st: StateGuard<'a>,
        tid: usize,
        new_status: Status,
    ) -> StateGuard<'a> {
        st.threads[tid].status = new_status;
        st.active = None;
        self.pick_next(&mut st);
        loop {
            if st.aborting {
                drop(st);
                std::panic::panic_any(ModelAbort);
            }
            if st.active == Some(tid) {
                return st;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Pre-operation preemption point: other threads may run before the
    /// caller's next operation. Records `(tid, opcode, object)` once the
    /// caller is active again, so the fingerprint reflects execution
    /// order.
    fn schedule_point(&self, tid: usize, opcode: u8, object: u64) {
        let st = self.lock_state();
        if st.aborting {
            drop(st);
            std::panic::panic_any(ModelAbort);
        }
        let mut st = self.yield_to_scheduler(st, tid, Status::Runnable);
        Self::record(&mut st, tid, opcode, object);
    }

    /// Park until this thread is made active for the first time (used
    /// by freshly spawned threads). Returns `false` when the execution
    /// aborted before the thread ever ran.
    fn wait_until_active(&self, tid: usize) -> bool {
        let mut st = self.lock_state();
        loop {
            if st.aborting {
                return false;
            }
            if st.active == Some(tid) {
                return true;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Mark `tid` finished, wake its joiners and hand activity to the
    /// next choice.
    fn finish(&self, tid: usize) {
        let mut st = self.lock_state();
        st.threads[tid].status = Status::Finished;
        st.threads[tid].wake_timed_out = false;
        Self::record(&mut st, tid, op::FINISH, 0);
        for t in &mut st.threads {
            if t.status == Status::BlockedJoin(tid) {
                t.status = Status::Runnable;
            }
        }
        if st.active == Some(tid) {
            st.active = None;
        }
        if st.threads.iter().all(|t| t.status == Status::Finished) {
            st.completed = true;
            self.cv.notify_all();
            return;
        }
        if st.active.is_none() {
            self.pick_next(&mut st);
        }
    }

    fn record_thread_panic(&self, tid: usize, payload: Box<dyn std::any::Any + Send>) {
        if payload.downcast_ref::<ModelAbort>().is_some() {
            return;
        }
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        let mut st = self.lock_state();
        self.fail(&mut st, format!("thread {tid} panicked: {message}"));
    }

    /// Register a new managed thread and spawn its OS carrier. The
    /// caller (the spawning managed thread) stays active.
    fn spawn_managed<F>(self: &Arc<Self>, body: F) -> usize
    where
        F: FnOnce() + Send + 'static,
    {
        let mut st = self.lock_state();
        let tid = st.threads.len();
        st.threads.push(ThreadInfo {
            status: Status::Runnable,
            wake_timed_out: false,
        });
        let exec = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("model-{tid}"))
            .spawn(move || {
                CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&exec), tid)));
                if exec.wait_until_active(tid) {
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(body)) {
                        exec.record_thread_panic(tid, payload);
                    }
                }
                exec.finish(tid);
                CURRENT.with(|c| *c.borrow_mut() = None);
            });
        match handle {
            Ok(h) => st.os_handles.push(h),
            Err(e) => {
                st.threads[tid].status = Status::Finished;
                self.fail(&mut st, format!("could not spawn model thread: {e}"));
            }
        }
        tid
    }
}

/// Run `f` once under the scheduler with the given replay `prefix` and
/// post-prefix `mode`; block until every managed thread has finished.
pub(crate) fn run_once(
    f: &Arc<dyn Fn() + Send + Sync>,
    prefix: Vec<u32>,
    mode: Mode,
    spurious_budget: u32,
) -> ExecOutcome {
    let exec = Arc::new(Execution::new(prefix, mode, spurious_budget));
    let root = Arc::clone(f);
    let tid = exec.spawn_managed(move || root());
    {
        // The root thread starts active; everything else waits its turn.
        let mut st = exec.lock_state();
        if !st.aborting {
            st.active = Some(tid);
        }
        exec.cv.notify_all();
    }
    let handles = {
        let mut st = exec.lock_state();
        while !(st.completed
            || st.aborting && st.threads.iter().all(|t| t.status == Status::Finished))
        {
            st = exec.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        std::mem::take(&mut st.os_handles)
    };
    for h in handles {
        let _ = h.join();
    }
    let st = exec.lock_state();
    ExecOutcome {
        decisions: st.decisions.clone(),
        fingerprint: st.fingerprint,
        ops: st.ops,
        failure: st.failure.clone(),
    }
}
