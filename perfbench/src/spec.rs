//! The three benchmark workloads: what each one builds and which clients
//! drive it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use turbopool::engine::Database;
use turbopool::iosim::rng::{Rng, SeedableRng, SmallRng};
use turbopool::iosim::{Clk, Time, HOUR, MINUTE};
use turbopool::workload::driver::ThroughputRecorder;
use turbopool::workload::driver::{CheckpointClient, CleanerClient, Client, StepResult};
use turbopool::workload::tpcc::Tpcc;
use turbopool::workload::tpce::Tpce;
use turbopool::workload::tpch::Tpch;
use turbopool::workload::{Design, Driver};

/// A benchmark workload, named as on the command line.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// TPC-C 2K warehouses, lazy cleaning, λ = 0.5, no checkpoints.
    TpccLc,
    /// TPC-E 20K customers, TAC, λ = 0.01, checkpoint every 40 minutes.
    TpceTac,
    /// TPC-H SF 100 query streams with no SSD tier.
    TpchNossd,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::TpccLc, Workload::TpceTac, Workload::TpchNossd];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TpccLc => "tpcc_lc",
            Workload::TpceTac => "tpce_tac",
            Workload::TpchNossd => "tpch_nossd",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The size the benchmark measures.
    pub fn full(self) -> Size {
        match self {
            Workload::TpccLc => Size {
                scale: 20,
                clients: 25,
                duration: Some(10 * HOUR),
                rounds: 0,
            },
            Workload::TpceTac => Size {
                scale: 2_000,
                clients: 25,
                duration: Some(10 * HOUR),
                rounds: 0,
            },
            Workload::TpchNossd => Size {
                scale: 100,
                clients: 4,
                duration: None,
                rounds: 8,
            },
        }
    }

    /// A small size with the same shape, for the self-tests.
    pub fn tiny(self) -> Size {
        match self {
            Workload::TpccLc => Size {
                scale: 2,
                clients: 4,
                duration: Some(HOUR),
                rounds: 0,
            },
            Workload::TpceTac => Size {
                scale: 100,
                clients: 4,
                duration: Some(HOUR),
                rounds: 0,
            },
            Workload::TpchNossd => Size {
                scale: 4,
                clients: 2,
                duration: None,
                rounds: 1,
            },
        }
    }

    fn design(self) -> Design {
        match self {
            Workload::TpccLc => Design::Lc,
            Workload::TpceTac => Design::Tac,
            Workload::TpchNossd => Design::NoSsd,
        }
    }

    fn lambda(self) -> f64 {
        match self {
            Workload::TpccLc => 0.5,
            Workload::TpceTac | Workload::TpchNossd => 0.01,
        }
    }

    /// Terminal operations run after a final checkpoint, right before the
    /// crash, by the workloads that checkpoint. The log tail the periodic
    /// checkpoints leave depends on the seed (500-700 records on tpce_tac),
    /// which made its restart time vary 2x across seeds; a fixed number of
    /// operations after a final checkpoint gives every seed about the same
    /// redo work.
    pub fn crash_tail_ops(self) -> Option<u64> {
        self.checkpoint().map(|_| 3_000)
    }

    fn checkpoint(self) -> Option<Time> {
        match self {
            Workload::TpceTac => Some(40 * MINUTE),
            Workload::TpccLc | Workload::TpchNossd => None,
        }
    }
}

/// How big one run of a workload is.
#[derive(Copy, Clone, Debug)]
pub struct Size {
    /// Scaled warehouses (TPC-C), scaled customers (TPC-E) or SF (TPC-H).
    pub scale: u64,
    /// Terminals (OLTP) or concurrent query streams (TPC-H).
    pub clients: usize,
    /// Virtual drive length (OLTP); `None` runs the TPC-H streams to
    /// their end.
    pub duration: Option<Time>,
    /// Permutations of Q1–Q22 + RF1/RF2 each TPC-H stream runs.
    pub rounds: usize,
}

/// The role of a client, for timing attribution.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Role {
    /// A terminal or query stream: one step is one operation.
    Terminal,
    /// The LC lazy cleaner.
    Cleaner,
    /// The sharp checkpointer.
    Checkpoint,
}

/// A loaded database plus the workload object its clients share.
pub struct Loaded {
    pub db: Arc<Database>,
    handle: Handle,
    /// The paper's result: NewOrder commits (TPC-C), Trade-Result commits
    /// (TPC-E) or completed queries (TPC-H), bucketed per virtual minute.
    pub result: Arc<ThroughputRecorder>,
    /// Latest virtual time any TPC-H stream finished at.
    pub finished_at: Arc<AtomicU64>,
}

enum Handle {
    Tpcc(Arc<Tpcc>),
    Tpce(Arc<Tpce>),
    Tpch(Arc<Tpch>),
}

/// Build and bulk-load `w`. For TPC-C and TPC-E the seed reaches the
/// terminals' generators through `SystemSpec::seed`; `Tpch::setup` has no
/// seed hook, so TPC-H data is the same for every seed and the seed only
/// drives the query streams (see [`clients`]).
pub fn setup(w: Workload, size: Size, seed: u64) -> Loaded {
    let seeded = |spec: &mut turbopool::workload::SystemSpec| spec.seed = seed;
    let handle = match w {
        Workload::TpccLc => Handle::Tpcc(Arc::new(Tpcc::setup_tweak(
            w.design(),
            size.scale,
            w.lambda(),
            seeded,
        ))),
        Workload::TpceTac => Handle::Tpce(Arc::new(Tpce::setup_tweak(
            w.design(),
            size.scale,
            w.lambda(),
            seeded,
        ))),
        Workload::TpchNossd => {
            Handle::Tpch(Arc::new(Tpch::setup(w.design(), size.scale, w.lambda())))
        }
    };
    let db = match &handle {
        Handle::Tpcc(t) => Arc::clone(&t.db),
        Handle::Tpce(t) => Arc::clone(&t.db),
        Handle::Tpch(t) => Arc::clone(&t.db),
    };
    Loaded {
        db,
        handle,
        result: ThroughputRecorder::new(MINUTE),
        finished_at: Arc::new(AtomicU64::new(0)),
    }
}

/// Every client of one run with its role, in registration order.
pub fn clients(w: Workload, size: Size, seed: u64, l: &Loaded) -> Vec<(Role, Box<dyn Client>)> {
    let mut out: Vec<(Role, Box<dyn Client>)> = Vec::new();
    for c in 0..size.clients as u64 {
        let client: Box<dyn Client> = match &l.handle {
            Handle::Tpcc(t) => Box::new(t.client(c, Arc::clone(&l.result))),
            Handle::Tpce(t) => Box::new(t.client(c, Arc::clone(&l.result))),
            Handle::Tpch(t) => Box::new(QueryStream::new(t, seed, c, size.rounds, l)),
        };
        out.push((Role::Terminal, client));
    }
    if let Some(interval) = w.checkpoint() {
        out.push((
            Role::Checkpoint,
            Box::new(CheckpointClient::new(Arc::clone(&l.db), interval)),
        ));
    }
    if let Some(cleaner) = CleanerClient::for_db(&l.db) {
        out.push((Role::Cleaner, Box::new(cleaner)));
    }
    out
}

impl Loaded {
    /// Release the workload object so the caller holds the only database
    /// handle (the driver and its clients must be dropped first).
    pub fn into_db(self) -> Database {
        drop(self.handle);
        Arc::try_unwrap(self.db).unwrap_or_else(|_| panic!("a client still holds the database"))
    }
}

/// Stops its client once a shared operation budget is spent.
struct Budgeted {
    inner: Box<dyn Client>,
    left: Arc<AtomicU64>,
}

impl Client for Budgeted {
    fn step(&mut self, clk: &mut Clk) -> StepResult {
        let spent = self
            .left
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_err();
        if spent {
            StepResult::Done
        } else {
            self.inner.step(clk)
        }
    }
}

/// Run `ops` terminal operations from fresh terminals whose clocks start
/// at `at`, without the checkpointer or the cleaner.
pub fn run_tail(w: Workload, size: Size, seed: u64, l: &Loaded, at: Time, ops: u64) {
    let left = Arc::new(AtomicU64::new(ops));
    let mut driver = Driver::new();
    for (role, inner) in clients(w, size, seed, l) {
        if role == Role::Terminal {
            let left = Arc::clone(&left);
            driver.add(at, Box::new(Budgeted { inner, left }));
        }
    }
    driver.run_to_completion();
}

/// One TPC-H stream: `rounds` seeded permutations of Q1–Q22, RF1 and RF2,
/// one item per step.
struct QueryStream {
    t: Arc<Tpch>,
    rng: SmallRng,
    items: Vec<usize>,
    next: usize,
    done: Arc<ThroughputRecorder>,
    finished_at: Arc<AtomicU64>,
}

const RF1: usize = 23;
const RF2: usize = 24;

impl QueryStream {
    fn new(t: &Arc<Tpch>, seed: u64, stream: u64, rounds: usize, l: &Loaded) -> Self {
        let mut rng =
            SmallRng::seed_from_u64(seed ^ (stream + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut items = Vec::with_capacity(rounds * RF2);
        for _ in 0..rounds {
            let mut round: Vec<usize> = (1..=RF2).collect();
            for i in (1..round.len()).rev() {
                round.swap(i, rng.gen_range(0..=i));
            }
            items.extend(round);
        }
        QueryStream {
            t: Arc::clone(t),
            rng,
            items,
            next: 0,
            done: Arc::clone(&l.result),
            finished_at: Arc::clone(&l.finished_at),
        }
    }
}

impl Client for QueryStream {
    fn step(&mut self, clk: &mut Clk) -> StepResult {
        let Some(&item) = self.items.get(self.next) else {
            return StepResult::Done;
        };
        self.next += 1;
        match item {
            RF1 => {
                self.t.rf1(clk);
            }
            RF2 => {
                self.t.rf2(clk);
            }
            q => {
                self.t.run_query(clk, q, &mut self.rng);
                self.done.record(clk.now);
            }
        }
        self.finished_at.fetch_max(clk.now, Ordering::Relaxed);
        if self.next == self.items.len() {
            StepResult::Done
        } else {
            StepResult::Continue
        }
    }
}
