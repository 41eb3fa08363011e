//! Wall-clock attribution from outside the program: a timing wrapper
//! around every driver client, and phase/step spans kept in memory.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use turbopool::iosim::Clk;
use turbopool::workload::driver::{Client, StepResult};

use crate::spec::Role;

/// What a span covers.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SpanKind {
    Setup,
    Drive,
    Tail,
    Digest,
    Restart,
    Verify,
    Step(Role),
}

impl SpanKind {
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Setup => "setup",
            SpanKind::Drive => "drive",
            SpanKind::Tail => "tail",
            SpanKind::Digest => "digest",
            SpanKind::Restart => "restart",
            SpanKind::Verify => "verify",
            SpanKind::Step(Role::Terminal) => "step.terminal",
            SpanKind::Step(Role::Cleaner) => "step.cleaner",
            SpanKind::Step(Role::Checkpoint) => "step.checkpoint",
        }
    }

    /// The layers a span's self time belongs to.
    pub fn layer(self) -> &'static str {
        match self {
            SpanKind::Setup => "workload generator + engine bulk load",
            SpanKind::Drive => "workload driver (self time: scheduling)",
            SpanKind::Tail => "final checkpoint + fixed op count before the crash",
            SpanKind::Digest | SpanKind::Verify => "engine txn reads + bufpool + iosim",
            SpanKind::Restart => "wal redo + engine reopen",
            SpanKind::Step(Role::Terminal) => "workload txns -> engine/bufpool/core/iosim/wal",
            SpanKind::Step(Role::Cleaner) => "core lazy cleaner",
            SpanKind::Step(Role::Checkpoint) => "engine sharp checkpoint",
        }
    }
}

/// One timed interval, in ns since the log's epoch. `parent` is the index
/// of the enclosing span (`None` for phases).
#[derive(Copy, Clone, Debug)]
pub struct Span {
    pub kind: SpanKind,
    pub parent: Option<u32>,
    pub start: u64,
    pub end: u64,
}

/// Step timings of one run, shared by every wrapped client. Untraced runs
/// keep only per-role totals and the terminal step durations; traced runs
/// also keep one span per phase and per step.
pub struct StepLog {
    epoch: Instant,
    /// Wall ns of every terminal step, in execution order.
    pub op_ns: Vec<u64>,
    /// Wall ns and step count per role (terminal, cleaner, checkpoint).
    pub role_ns: [u64; 3],
    pub role_steps: [u64; 3],
    spans: Option<Vec<Span>>,
    open: Option<u32>,
}

fn role_index(r: Role) -> usize {
    match r {
        Role::Terminal => 0,
        Role::Cleaner => 1,
        Role::Checkpoint => 2,
    }
}

impl StepLog {
    pub fn new(traced: bool) -> Arc<Mutex<StepLog>> {
        Arc::new(Mutex::new(StepLog {
            epoch: Instant::now(),
            op_ns: Vec::new(),
            role_ns: [0; 3],
            role_steps: [0; 3],
            spans: traced.then(Vec::new),
            open: None,
        }))
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    pub fn role_secs(&self, r: Role) -> f64 {
        self.role_ns[role_index(r)] as f64 / 1e9
    }

    pub fn role_count(&self, r: Role) -> u64 {
        self.role_steps[role_index(r)]
    }

    fn step(&mut self, role: Role, t0: Instant, t1: Instant) {
        let d = t1.duration_since(t0).as_nanos() as u64;
        let i = role_index(role);
        self.role_ns[i] += d;
        self.role_steps[i] += 1;
        if role == Role::Terminal {
            self.op_ns.push(d);
        }
        let (start, end, parent) = (self.ns(t0), self.ns(t1), self.open);
        if let Some(spans) = &mut self.spans {
            spans.push(Span {
                kind: SpanKind::Step(role),
                parent,
                start,
                end,
            });
        }
    }

    /// Record a finished phase that has no child spans.
    pub fn phase(&mut self, kind: SpanKind, t0: Instant, t1: Instant) {
        let (start, end) = (self.ns(t0), self.ns(t1));
        if let Some(spans) = &mut self.spans {
            spans.push(Span {
                kind,
                parent: None,
                start,
                end,
            });
        }
    }

    /// Open a phase span (traced runs); steps recorded until
    /// [`StepLog::close`] become its children.
    pub fn open(&mut self, kind: SpanKind) {
        let start = self.ns(Instant::now());
        if let Some(spans) = &mut self.spans {
            self.open = Some(spans.len() as u32);
            spans.push(Span {
                kind,
                parent: None,
                start,
                end: start,
            });
        }
    }

    pub fn close(&mut self) {
        let end = self.ns(Instant::now());
        if let (Some(spans), Some(i)) = (&mut self.spans, self.open.take()) {
            spans[i as usize].end = end;
        }
    }

    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// Per span kind: (count, total ns, self ns). A span's self time is
    /// its duration minus the time its children cover.
    pub fn self_times(&self) -> Vec<(SpanKind, u64, u64, u64)> {
        let spans = self.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end - s.start;
            }
        }
        let mut out: Vec<(SpanKind, u64, u64, u64)> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            let total = s.end - s.start;
            let own = total.saturating_sub(child_ns[i]);
            match out.iter_mut().find(|e| e.0 == s.kind) {
                Some(e) => {
                    e.1 += 1;
                    e.2 += total;
                    e.3 += own;
                }
                None => out.push((s.kind, 1, total, own)),
            }
        }
        out
    }

    /// Write every span as one CSV row under `run_id`.
    pub fn write_spans(&self, out: &mut impl Write, run_id: &str) -> std::io::Result<()> {
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                out,
                "{run_id},{i},{parent},{},{},{}",
                s.kind.label(),
                s.start,
                s.end
            )?;
        }
        Ok(())
    }
}

/// A driver client whose every step is timed into a shared [`StepLog`].
pub struct Timed {
    inner: Box<dyn Client>,
    role: Role,
    log: Arc<Mutex<StepLog>>,
}

impl Timed {
    pub fn new(role: Role, inner: Box<dyn Client>, log: &Arc<Mutex<StepLog>>) -> Self {
        Timed {
            inner,
            role,
            log: Arc::clone(log),
        }
    }
}

impl Client for Timed {
    fn step(&mut self, clk: &mut Clk) -> StepResult {
        let t0 = Instant::now();
        let r = self.inner.step(clk);
        let t1 = Instant::now();
        self.log.lock().expect("step log").step(self.role, t0, t1);
        r
    }
}
