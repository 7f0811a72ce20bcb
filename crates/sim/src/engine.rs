//! The discrete-event execution engine.

use crate::faults::{FaultEvent, FaultKind, FaultPlan, FaultStats};
use crate::locks::{LockOutcome, LockTable};
use crate::protocol::{DeadlockPolicy, LockScope, Protocol};
use crate::template::{Program, Step, TxTemplate};
use crate::topology::{CompId, Topology};
use compc_model::{AccessMode, ItemId, OpSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// Simulation parameters.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// RNG seed; runs are deterministic per seed.
    pub seed: u64,
    /// Service time of one operation, inclusive range in ticks.
    pub op_duration: (u64, u64),
    /// Spacing between consecutive transaction arrivals, inclusive range.
    pub arrival_spacing: (u64, u64),
    /// Give up on a composite transaction after this many attempts.
    pub max_attempts: u32,
    /// Base backoff before a retry (multiplied by the attempt number).
    pub retry_backoff: u64,
    /// Deadlock handling for the two-phase lockers.
    pub deadlock: DeadlockPolicy,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 42,
            op_duration: (1, 4),
            arrival_spacing: (0, 3),
            max_attempts: 25,
            retry_backoff: 8,
            deadlock: DeadlockPolicy::Detect,
        }
    }
}

/// One grant-log record of a component: the order in which the component
/// executed (granted) its operations — the component's output order.
#[derive(Clone, Copy, Debug)]
pub struct LogEntry {
    /// Composite transaction id.
    pub tx: u32,
    /// Issuing subtransaction (index into the transaction's program).
    pub subtx: usize,
    /// Template node id of the operation.
    pub node: usize,
    /// Operation semantics.
    pub spec: OpSpec,
    /// Grant time.
    pub time: u64,
}

/// Aggregate outcome counters of a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimMetrics {
    /// Composite transactions that committed.
    pub committed: u64,
    /// Composite transactions that exhausted their attempts
    /// ([`SimConfig::max_attempts`]) and gave up.
    pub failed: u64,
    /// Total aborted attempts (retries included); the sum of the per-reason
    /// counters below.
    pub aborts: u64,
    /// Aborted attempts caused by waits-for deadlock detection.
    pub deadlock_aborts: u64,
    /// Aborted attempts of wound-wait victims.
    pub wound_aborts: u64,
    /// Aborted attempts refused by a protocol (SGT cycle, timestamp
    /// too-late).
    pub protocol_aborts: u64,
    /// Aborted attempts caused by injected faults (component crashes and
    /// outages, transient operation failures).
    pub fault_aborts: u64,
    /// Operations granted (committed and aborted attempts alike).
    pub ops_executed: u64,
    /// Simulated end time.
    pub end_time: u64,
    /// Summed commit latency (commit time − first arrival) over committed
    /// transactions.
    pub total_latency: u64,
}

impl SimMetrics {
    /// Commits per 1000 ticks.
    pub fn throughput(&self) -> f64 {
        if self.end_time == 0 {
            0.0
        } else {
            self.committed as f64 * 1000.0 / self.end_time as f64
        }
    }

    /// Mean commit latency in ticks.
    pub fn mean_latency(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.committed as f64
        }
    }

    /// Sums another run's counters into this one (sweep summaries). Times
    /// aggregate as max end time and summed latency.
    pub fn merge(&mut self, other: &SimMetrics) {
        self.committed += other.committed;
        self.failed += other.failed;
        self.aborts += other.aborts;
        self.deadlock_aborts += other.deadlock_aborts;
        self.wound_aborts += other.wound_aborts;
        self.protocol_aborts += other.protocol_aborts;
        self.fault_aborts += other.fault_aborts;
        self.ops_executed += other.ops_executed;
        self.end_time = self.end_time.max(other.end_time);
        self.total_latency += other.total_latency;
    }
}

/// Everything a finished run exposes: metrics, per-component grant logs,
/// final store states, and which transactions committed.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// The simulated topology.
    pub topology: Topology,
    /// The submitted templates (index = composite transaction id).
    pub templates: Vec<TxTemplate>,
    /// Ids of committed composite transactions.
    pub committed: BTreeSet<u32>,
    /// Per-component grant logs (only committed entries are meaningful for
    /// export; aborted attempts have been scrubbed already).
    pub logs: Vec<Vec<LogEntry>>,
    /// Final key-value state per component.
    pub stores: Vec<BTreeMap<ItemId, i64>>,
    /// Run counters.
    pub metrics: SimMetrics,
    /// Fault injections recorded during the run, in injection order (empty
    /// without a [`FaultPlan`]).
    pub faults: Vec<FaultEvent>,
    /// Aggregate per-kind fault counters.
    pub fault_stats: FaultStats,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum TxStatus {
    Scheduled,
    Running,
    Blocked,
    Committed,
    Failed,
}

#[derive(Clone, Debug)]
struct TxState {
    program: Program,
    pc: usize,
    status: TxStatus,
    attempt: u32,
    first_arrival: u64,
    timestamp: u64,
    /// Undo log of store effects: (component, item, previous value).
    undo: Vec<(CompId, ItemId, i64)>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Arrive(u32),
    OpDone(u32),
    Resume(u32),
    Retry(u32),
    /// A scheduled component crash (index into the fault plan's crash list).
    Crash(u32),
    /// A crashed component comes back up (component id).
    Restart(u32),
    /// Reap expired lock leases at a component (component id).
    ExpireLeases(u32),
}

/// Why a transaction attempt was aborted (drives the per-reason counters in
/// [`SimMetrics`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AbortReason {
    Deadlock,
    Wound,
    Protocol,
    Fault,
}

/// The simulator. Construct with a topology, templates and a config, then
/// [`Engine::run`]. Optionally attach a [`FaultPlan`] with
/// [`Engine::faults`].
pub struct Engine {
    topology: Topology,
    templates: Vec<TxTemplate>,
    config: SimConfig,
    faults: Option<FaultPlan>,
}

struct RunState {
    txs: Vec<TxState>,
    locks: Vec<LockTable>,
    sgt_edges: Vec<BTreeSet<(u32, u32)>>,
    to_stamps: Vec<BTreeMap<(ItemId, AccessMode), u64>>,
    waits_for: BTreeMap<u32, Vec<u32>>,
    /// Input-order predecessors of a subtransaction, per Definition 4.7:
    /// when a call operation is granted, every earlier conflicting call at
    /// the same component with the same target makes its spawned
    /// subtransaction a predecessor of the new one.
    input_preds: BTreeMap<(u32, usize), Vec<(u32, usize)>>,
    /// Call history per component: (tx, spawned subtx, target, spec).
    call_history: Vec<Vec<(u32, usize, CompId, OpSpec)>>,
    /// Subtransactions that have committed.
    committed_subtx: BTreeSet<(u32, usize)>,
    /// Transactions blocked by the CC scheduler, waiting on predecessor
    /// subtransactions (as opposed to blocked in a lock table).
    blocked_on_preds: BTreeSet<u32>,
    logs: Vec<Vec<LogEntry>>,
    stores: Vec<BTreeMap<ItemId, i64>>,
    queue: BinaryHeap<Reverse<(u64, u64, Event)>>,
    seq: u64,
    now: u64,
    ts_counter: u64,
    metrics: SimMetrics,
    rng: StdRng,
    /// Dedicated fault RNG, drawn from the plan's seed — never from
    /// `SimConfig::seed` — so fault decisions cannot perturb the workload's
    /// randomness (and a fault-free run never touches it at all).
    fault_rng: StdRng,
    /// Per-component outage deadline: the component refuses operations
    /// while `now < down_until[comp]`.
    down_until: Vec<u64>,
    fault_events: Vec<FaultEvent>,
    fault_stats: FaultStats,
}

impl RunState {
    fn push(&mut self, time: u64, ev: Event) {
        self.seq += 1;
        self.queue.push(Reverse((time, self.seq, ev)));
    }

    fn record_fault(&mut self, kind: FaultKind, comp: CompId, tx: Option<u32>) {
        self.fault_stats.record(kind);
        self.fault_events.push(FaultEvent {
            kind,
            comp,
            tx,
            time: self.now,
        });
    }
}

impl Engine {
    /// Creates an engine.
    pub fn new(topology: Topology, templates: Vec<TxTemplate>, config: SimConfig) -> Self {
        Engine {
            topology,
            templates,
            config,
            faults: None,
        }
    }

    /// Attaches a fault plan. A disabled plan (see
    /// [`FaultPlan::is_disabled`]) is dropped outright, so the run stays
    /// byte-identical to one with no plan at all.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = if plan.is_disabled() { None } else { Some(plan) };
        self
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(&self) -> SimReport {
        let n_comp = self.topology.len();
        let mut st = RunState {
            txs: Vec::with_capacity(self.templates.len()),
            locks: vec![LockTable::new(); n_comp],
            sgt_edges: vec![BTreeSet::new(); n_comp],
            to_stamps: vec![BTreeMap::new(); n_comp],
            waits_for: BTreeMap::new(),
            input_preds: BTreeMap::new(),
            call_history: vec![Vec::new(); n_comp],
            committed_subtx: BTreeSet::new(),
            blocked_on_preds: BTreeSet::new(),
            logs: vec![Vec::new(); n_comp],
            stores: vec![BTreeMap::new(); n_comp],
            queue: BinaryHeap::new(),
            seq: 0,
            now: 0,
            ts_counter: 0,
            metrics: SimMetrics::default(),
            rng: StdRng::seed_from_u64(self.config.seed),
            fault_rng: self
                .faults
                .as_ref()
                .map(|p| p.rng())
                .unwrap_or_else(|| StdRng::seed_from_u64(0)),
            // Only faulted runs pay for the outage table; the fault hooks
            // that read it are themselves gated on a plan being installed.
            down_until: if self.faults.is_some() {
                vec![0; n_comp]
            } else {
                Vec::new()
            },
            fault_events: Vec::new(),
            fault_stats: FaultStats::default(),
        };
        // Schedule arrivals.
        let mut t = 0u64;
        for (i, template) in self.templates.iter().enumerate() {
            st.txs.push(TxState {
                program: template.compile(),
                pc: 0,
                status: TxStatus::Scheduled,
                attempt: 0,
                first_arrival: t,
                timestamp: 0,
                undo: Vec::new(),
            });
            st.push(t, Event::Arrive(i as u32));
            let (lo, hi) = self.config.arrival_spacing;
            t += st.rng.gen_range(lo..=hi);
        }
        // Schedule planned component crashes (out-of-topology targets are
        // ignored rather than panicking mid-run).
        if let Some(plan) = &self.faults {
            for (i, crash) in plan.crashes().iter().enumerate() {
                if crash.comp.index() < n_comp {
                    st.push(crash.at, Event::Crash(i as u32));
                }
            }
        }
        // Event loop.
        while let Some(Reverse((time, _, ev))) = st.queue.pop() {
            st.now = time;
            match ev {
                Event::Arrive(tx) | Event::Retry(tx) => {
                    if st.txs[tx as usize].status == TxStatus::Failed {
                        continue;
                    }
                    st.ts_counter += 1;
                    let ts = st.ts_counter;
                    let s = &mut st.txs[tx as usize];
                    s.status = TxStatus::Running;
                    s.pc = 0;
                    s.timestamp = ts;
                    self.advance(&mut st, tx);
                }
                Event::OpDone(tx) => {
                    if st.txs[tx as usize].status != TxStatus::Running {
                        continue; // aborted while the op was in service
                    }
                    self.finish_op(&mut st, tx);
                    st.txs[tx as usize].pc += 1;
                    self.advance(&mut st, tx);
                }
                Event::Resume(tx) => {
                    if st.txs[tx as usize].status != TxStatus::Blocked {
                        continue;
                    }
                    st.txs[tx as usize].status = TxStatus::Running;
                    st.waits_for.remove(&tx);
                    if st.blocked_on_preds.remove(&tx) {
                        // CC-scheduler wait: the predecessor committed; the
                        // whole admission decision re-runs.
                        self.advance(&mut st, tx);
                    } else {
                        // Lock-table wait: the release already granted the
                        // request; the pending op executes now.
                        self.execute_current_op(&mut st, tx);
                    }
                }
                Event::Crash(idx) => {
                    self.crash_component(&mut st, idx as usize);
                }
                Event::Restart(c) => {
                    self.restart_component(&mut st, CompId(c));
                }
                Event::ExpireLeases(c) => {
                    self.expire_component_leases(&mut st, CompId(c));
                }
            }
        }
        st.metrics.end_time = st.now;
        SimReport {
            topology: self.topology.clone(),
            templates: self.templates.clone(),
            committed: st
                .txs
                .iter()
                .enumerate()
                .filter(|(_, s)| s.status == TxStatus::Committed)
                .map(|(i, _)| i as u32)
                .collect(),
            logs: st.logs,
            stores: st.stores,
            metrics: st.metrics,
            faults: st.fault_events,
            fault_stats: st.fault_stats,
        }
    }

    /// Takes down the component named by crash spec `idx`: every composite
    /// transaction with in-flight work there (log entries, held or awaited
    /// locks) aborts, and the component refuses new operations until the
    /// outage ends.
    /// Handles an [`Event::Restart`]: the component's outage ended. Stale
    /// if a later crash extended the outage past this event's time.
    #[cold]
    #[inline(never)]
    fn restart_component(&self, st: &mut RunState, comp: CompId) {
        if st.down_until[comp.index()] <= st.now {
            st.record_fault(FaultKind::Restart, comp, None);
        }
    }

    /// Handles an [`Event::ExpireLeases`]: reaps the component's orphaned
    /// grants whose lease expired and wakes the requests they blocked.
    #[cold]
    #[inline(never)]
    fn expire_component_leases(&self, st: &mut RunState, comp: CompId) {
        let table = &self.topology.component(comp).table;
        let (expired, woken) = st.locks[comp.index()].expire_orphans(table, st.now);
        for &e in &expired {
            // Scrub stale waits-for edges onto the reaped transaction so
            // deadlock detection stays sound.
            for w in st.waits_for.values_mut() {
                w.retain(|&b| b != e);
            }
            st.record_fault(FaultKind::LeaseExpiry, comp, Some(e));
        }
        let now = st.now;
        for w in woken {
            st.push(now, Event::Resume(w.tx));
        }
    }

    #[cold]
    #[inline(never)]
    fn crash_component(&self, st: &mut RunState, idx: usize) {
        let plan = self.faults.as_ref().expect("crash event without a plan");
        let spec = plan.crashes()[idx];
        let comp = spec.comp;
        st.down_until[comp.index()] = st.down_until[comp.index()].max(st.now + spec.outage);
        st.record_fault(FaultKind::Crash, comp, None);
        let restart_at = st.down_until[comp.index()];
        st.push(restart_at, Event::Restart(comp.0));
        let victims: Vec<u32> = st
            .txs
            .iter()
            .enumerate()
            .filter(|&(i, s)| {
                matches!(s.status, TxStatus::Running | TxStatus::Blocked)
                    && (st.logs[comp.index()].iter().any(|e| e.tx == i as u32)
                        || st.locks[comp.index()].involves(i as u32))
            })
            .map(|(i, _)| i as u32)
            .collect();
        for v in victims {
            self.abort(st, v, AbortReason::Fault);
        }
    }

    /// Processes steps for `tx` until it blocks, aborts, schedules an op
    /// completion, or finishes.
    fn advance(&self, st: &mut RunState, tx: u32) {
        loop {
            let s = &st.txs[tx as usize];
            if s.pc >= s.program.steps.len() {
                self.commit_root(st, tx);
                return;
            }
            match s.program.steps[s.pc].clone() {
                Step::Commit { subtx } => {
                    let comp = st.txs[tx as usize].program.subtxs[subtx].0;
                    if let Protocol::TwoPhase {
                        scope: LockScope::Subtransaction,
                    } = self.topology.component(comp).protocol
                    {
                        let table = &self.topology.component(comp).table;
                        let woken = st.locks[comp.index()].release_subtx(table, tx, subtx);
                        let now = st.now;
                        for w in woken {
                            st.push(now, Event::Resume(w.tx));
                        }
                    }
                    st.committed_subtx.insert((tx, subtx));
                    self.wake_pred_waiters(st);
                    st.txs[tx as usize].pc += 1;
                }
                Step::Op { comp, spec, .. } => {
                    if self.faults.is_some() && self.op_fault_interferes(st, tx, comp) {
                        return;
                    }
                    match self.try_grant(st, tx, comp, spec) {
                        Decision::Granted => {
                            self.execute_current_op(st, tx);
                        }
                        Decision::Blocked(blockers) => {
                            let wound_wait = matches!(
                                self.topology.component(comp).protocol,
                                Protocol::TwoPhase { .. }
                            ) && self.config.deadlock == DeadlockPolicy::WoundWait;
                            if wound_wait {
                                let my_ts = st.txs[tx as usize].timestamp;
                                // Never wound a committed blocker: with
                                // dropped lock releases a blocker may be an
                                // already-committed orphan whose lease must
                                // simply expire.
                                let victims: Vec<u32> = blockers
                                    .iter()
                                    .copied()
                                    .filter(|&b| {
                                        st.txs[b as usize].timestamp > my_ts
                                            && st.txs[b as usize].status != TxStatus::Committed
                                    })
                                    .collect();
                                if !victims.is_empty() {
                                    // Older requester wounds younger
                                    // blockers, withdraws its queued request
                                    // and retries the step immediately.
                                    st.locks[comp.index()].cancel_waiting(tx);
                                    for v in victims {
                                        self.abort(st, v, AbortReason::Wound);
                                    }
                                    continue;
                                }
                            }
                            st.txs[tx as usize].status = TxStatus::Blocked;
                            st.waits_for.insert(tx, blockers);
                            if !wound_wait && self.deadlocked(st, tx) {
                                self.abort(st, tx, AbortReason::Deadlock);
                            }
                            return;
                        }
                        Decision::Abort => {
                            self.abort(st, tx, AbortReason::Protocol);
                            return;
                        }
                    }
                    return;
                }
            }
        }
    }

    /// Grants the current op (already admitted by the protocol): logs it and
    /// schedules its completion.
    fn execute_current_op(&self, st: &mut RunState, tx: u32) {
        let s = &st.txs[tx as usize];
        let Step::Op {
            subtx,
            comp,
            spec,
            node,
            spawns,
        } = s.program.steps[s.pc].clone()
        else {
            unreachable!("execute_current_op at a non-op step");
        };
        let now = st.now;
        if let Some(child) = spawns {
            // Definition 4.7 bookkeeping: earlier conflicting calls at this
            // component with the same target precede the spawned
            // subtransaction in the target's input order.
            let target = st.txs[tx as usize].program.subtxs[child].0;
            let preds: Vec<(u32, usize)> = st.call_history[comp.index()]
                .iter()
                .filter(|&&(ptx, _, ptarget, pspec)| {
                    ptx != tx
                        && ptarget == target
                        && self.topology.component(comp).table.conflicts(pspec, spec)
                })
                .map(|&(ptx, psub, _, _)| (ptx, psub))
                .collect();
            if !preds.is_empty() {
                st.input_preds.insert((tx, child), preds);
            }
            st.call_history[comp.index()].push((tx, child, target, spec));
        }
        st.logs[comp.index()].push(LogEntry {
            tx,
            subtx,
            node,
            spec,
            time: now,
        });
        st.metrics.ops_executed += 1;
        let (lo, hi) = self.config.op_duration;
        let mut dur = st.rng.gen_range(lo..=hi);
        if self.faults.is_some() {
            dur += self.stall_fault(st, tx, comp);
        }
        st.push(now + dur, Event::OpDone(tx));
    }

    /// Fault hooks on an operation attempt — outage refusal (a crashed
    /// component refuses operations until its outage ends) and transient
    /// operation failure, both aborting with the normal retry backoff.
    /// Outlined so the fault-free hot loop pays one predictable branch;
    /// only called with a plan installed. Returns true when the attempt
    /// aborted.
    #[cold]
    #[inline(never)]
    fn op_fault_interferes(&self, st: &mut RunState, tx: u32, comp: CompId) -> bool {
        let plan = self.faults.as_ref().expect("caller checked");
        if st.down_until[comp.index()] > st.now {
            self.abort(st, tx, AbortReason::Fault);
            return true;
        }
        let p = plan.op_fail_prob();
        if p > 0.0 && st.fault_rng.gen_bool(p) {
            st.record_fault(FaultKind::OpFailure, comp, Some(tx));
            self.abort(st, tx, AbortReason::Fault);
            return true;
        }
        false
    }

    /// Grant-stall fault hook: a latency spike on a granted operation,
    /// drawn from the dedicated fault RNG. Outlined like
    /// [`Engine::op_fault_interferes`]; only called with a plan installed.
    #[cold]
    #[inline(never)]
    fn stall_fault(&self, st: &mut RunState, tx: u32, comp: CompId) -> u64 {
        let plan = self.faults.as_ref().expect("caller checked");
        let p = plan.stall_prob();
        if p > 0.0 && st.fault_rng.gen_bool(p) {
            let (slo, shi) = plan.stall_ticks();
            st.record_fault(FaultKind::Stall, comp, Some(tx));
            st.fault_rng.gen_range(slo..=shi)
        } else {
            0
        }
    }

    /// Applies the current (data) op's store effect as it completes.
    fn finish_op(&self, st: &mut RunState, tx: u32) {
        let s = &st.txs[tx as usize];
        let Step::Op {
            comp,
            spec,
            spawns,
            node,
            ..
        } = s.program.steps[s.pc].clone()
        else {
            return;
        };
        if spawns.is_some() {
            return; // call ops have no direct store effect
        }
        let store = &mut st.stores[comp.index()];
        let old = store.get(&spec.item).copied().unwrap_or(0);
        let new = match spec.mode {
            AccessMode::Read => return,
            AccessMode::Write => (tx as i64) * 1000 + node as i64,
            AccessMode::Increment | AccessMode::Insert => old + 1,
            AccessMode::Decrement | AccessMode::Delete => old - 1,
        };
        st.txs[tx as usize].undo.push((comp, spec.item, old));
        store.insert(spec.item, new);
    }

    fn try_grant(&self, st: &mut RunState, tx: u32, comp: CompId, spec: OpSpec) -> Decision {
        let component = self.topology.component(comp);
        let subtx = {
            let s = &st.txs[tx as usize];
            match s.program.steps[s.pc] {
                Step::Op { subtx, .. } => subtx,
                Step::Commit { .. } => unreachable!(),
            }
        };
        match component.protocol {
            Protocol::None => Decision::Granted,
            Protocol::CcSched => {
                // Input-order obedience: wait until every input-order
                // predecessor subtransaction has committed.
                let pending: Vec<u32> = st
                    .input_preds
                    .get(&(tx, subtx))
                    .into_iter()
                    .flatten()
                    .filter(|p| !st.committed_subtx.contains(p))
                    .map(|&(ptx, _)| ptx)
                    .collect();
                if !pending.is_empty() {
                    st.blocked_on_preds.insert(tx);
                    return Decision::Blocked(pending);
                }
                // Then serialization-graph testing, as for SGT.
                self.sgt_decision(st, tx, comp, spec)
            }
            Protocol::TwoPhase { .. } => {
                match st.locks[comp.index()].request(
                    &component.table,
                    spec.item,
                    tx,
                    subtx,
                    spec.mode,
                ) {
                    LockOutcome::Granted => Decision::Granted,
                    LockOutcome::Blocked(blockers) => Decision::Blocked(blockers),
                }
            }
            Protocol::Sgt => self.sgt_decision(st, tx, comp, spec),
            Protocol::Timestamp => {
                let ts = st.txs[tx as usize].timestamp;
                let stamps = &mut st.to_stamps[comp.index()];
                let too_late = AccessMode::ALL.iter().any(|&m| {
                    !component.table.modes_commute(m, spec.mode)
                        && stamps.get(&(spec.item, m)).copied().unwrap_or(0) > ts
                });
                if too_late {
                    Decision::Abort
                } else {
                    let slot = stamps.entry((spec.item, spec.mode)).or_insert(0);
                    *slot = (*slot).max(ts);
                    Decision::Granted
                }
            }
        }
    }

    /// Serialization-graph testing: add edges from every earlier conflicting
    /// log entry, abort if a cycle through `tx` forms.
    fn sgt_decision(&self, st: &mut RunState, tx: u32, comp: CompId, spec: OpSpec) -> Decision {
        let component = self.topology.component(comp);
        let new_edges: Vec<(u32, u32)> = st.logs[comp.index()]
            .iter()
            .filter(|e| e.tx != tx && component.table.conflicts(e.spec, spec))
            .map(|e| (e.tx, tx))
            .collect();
        let edges = &mut st.sgt_edges[comp.index()];
        for e in &new_edges {
            edges.insert(*e);
        }
        if sgt_cycle_through(edges, tx) {
            Decision::Abort
        } else {
            Decision::Granted
        }
    }

    /// Re-schedules every transaction blocked on predecessor commits; each
    /// will re-run its admission decision and re-block if predecessors
    /// remain.
    fn wake_pred_waiters(&self, st: &mut RunState) {
        let now = st.now;
        let waiters: Vec<u32> = st.blocked_on_preds.iter().copied().collect();
        for w in waiters {
            st.push(now, Event::Resume(w));
        }
    }

    fn deadlocked(&self, st: &RunState, tx: u32) -> bool {
        // DFS over the global waits-for graph looking for a cycle through tx.
        let mut stack = vec![tx];
        let mut seen = BTreeSet::new();
        while let Some(cur) = stack.pop() {
            for &next in st.waits_for.get(&cur).into_iter().flatten() {
                if next == tx {
                    return true;
                }
                if seen.insert(next) {
                    stack.push(next);
                }
            }
        }
        false
    }

    fn commit_root(&self, st: &mut RunState, tx: u32) {
        let dropped = self.faults.is_some() && self.commit_fault_drops_releases(st, tx);
        if !dropped {
            self.release_everything(st, tx);
        }
        let s = &mut st.txs[tx as usize];
        s.status = TxStatus::Committed;
        s.undo.clear();
        st.metrics.committed += 1;
        st.metrics.total_latency += st.now - s.first_arrival;
    }

    /// Dropped-release fault hook on a root commit: draws the drop
    /// decision and, when it fires, orphans the transaction's grants.
    /// Outlined like [`Engine::op_fault_interferes`]; only called with a
    /// plan installed.
    #[cold]
    #[inline(never)]
    fn commit_fault_drops_releases(&self, st: &mut RunState, tx: u32) -> bool {
        let plan = self.faults.as_ref().expect("caller checked");
        let p = plan.drop_release_prob();
        p > 0.0 && st.fault_rng.gen_bool(p) && {
            let lease = plan.lease();
            self.drop_releases(st, tx, lease)
        }
    }

    /// Fault path of a root commit: the transaction's lock releases are
    /// lost. Its grants stay in the tables as orphans under a lease, still
    /// blocking conflicting requests, until an [`Event::ExpireLeases`] reaps
    /// them. Returns false when the transaction held no locks (nothing to
    /// drop — the caller releases normally).
    fn drop_releases(&self, st: &mut RunState, tx: u32, lease: u64) -> bool {
        let expires = st.now + lease;
        let mut any = false;
        for (comp, _) in self.topology.iter() {
            if st.locks[comp.index()].orphan_tx(tx, expires) > 0 {
                any = true;
                st.record_fault(FaultKind::DroppedRelease, comp, Some(tx));
                st.push(expires, Event::ExpireLeases(comp.0));
            }
        }
        if any {
            // The committed transaction itself waits on nobody; waiters
            // blocked on *it* keep their waits-for edges until the lease
            // expires.
            st.waits_for.remove(&tx);
        }
        any
    }

    fn abort(&self, st: &mut RunState, tx: u32, reason: AbortReason) {
        st.metrics.aborts += 1;
        match reason {
            AbortReason::Deadlock => st.metrics.deadlock_aborts += 1,
            AbortReason::Wound => st.metrics.wound_aborts += 1,
            AbortReason::Protocol => st.metrics.protocol_aborts += 1,
            AbortReason::Fault => st.metrics.fault_aborts += 1,
        }
        self.release_everything(st, tx);
        // Undo store effects in reverse order (best effort — see crate docs
        // on open-nesting compensation).
        let undo: Vec<_> = std::mem::take(&mut st.txs[tx as usize].undo);
        for (comp, item, old) in undo.into_iter().rev() {
            st.stores[comp.index()].insert(item, old);
        }
        // Scrub this attempt's log entries and serialization edges.
        for log in &mut st.logs {
            log.retain(|e| e.tx != tx);
        }
        for edges in &mut st.sgt_edges {
            edges.retain(|&(a, b)| a != tx && b != tx);
        }
        for hist in &mut st.call_history {
            hist.retain(|&(t, ..)| t != tx);
        }
        st.input_preds.retain(|&(t, _), _| t != tx);
        for preds in st.input_preds.values_mut() {
            preds.retain(|&(t, _)| t != tx);
        }
        st.blocked_on_preds.remove(&tx);
        st.committed_subtx.retain(|&(t, _)| t != tx);
        // A retracted predecessor may unblock CC-scheduler waiters.
        self.wake_pred_waiters(st);
        let s = &mut st.txs[tx as usize];
        s.attempt += 1;
        s.pc = 0;
        if s.attempt >= self.config.max_attempts {
            s.status = TxStatus::Failed;
            st.metrics.failed += 1;
        } else {
            s.status = TxStatus::Scheduled;
            let delay = self.config.retry_backoff * s.attempt as u64 + 1;
            let now = st.now;
            st.push(now + delay, Event::Retry(tx));
        }
    }

    fn release_everything(&self, st: &mut RunState, tx: u32) {
        st.waits_for.remove(&tx);
        for w in st.waits_for.values_mut() {
            w.retain(|&b| b != tx);
        }
        let now = st.now;
        for (comp, component) in self.topology.iter() {
            let woken = st.locks[comp.index()].release_tx(&component.table, tx);
            for w in woken {
                st.push(now, Event::Resume(w.tx));
            }
        }
    }
}

enum Decision {
    Granted,
    Blocked(Vec<u32>),
    Abort,
}

fn sgt_cycle_through(edges: &BTreeSet<(u32, u32)>, tx: u32) -> bool {
    let mut stack = vec![tx];
    let mut seen = BTreeSet::new();
    while let Some(cur) = stack.pop() {
        for &(a, b) in edges.iter().filter(|&&(a, _)| a == cur) {
            debug_assert_eq!(a, cur);
            if b == tx {
                return true;
            }
            if seen.insert(b) {
                stack.push(b);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::TxNode;
    use compc_model::CommutativityTable;

    fn w(item: u32) -> TxNode {
        TxNode::data(OpSpec::write(ItemId(item)))
    }

    fn r(item: u32) -> TxNode {
        TxNode::data(OpSpec::read(ItemId(item)))
    }

    fn flat_topology(protocol: Protocol) -> Topology {
        let mut t = Topology::new();
        t.add("store", protocol, CommutativityTable::read_write());
        t
    }

    fn run(protocol: Protocol, templates: Vec<TxTemplate>) -> SimReport {
        Engine::new(flat_topology(protocol), templates, SimConfig::default()).run()
    }

    fn tmpl(name: &str, body: Vec<TxNode>) -> TxTemplate {
        TxTemplate {
            name: name.into(),
            home: CompId(0),
            body,
        }
    }

    #[test]
    fn single_transaction_commits() {
        let report = run(
            Protocol::TwoPhase {
                scope: LockScope::Composite,
            },
            vec![tmpl("t", vec![w(0), r(1)])],
        );
        assert_eq!(report.metrics.committed, 1);
        assert_eq!(report.metrics.aborts, 0);
        assert_eq!(report.logs[0].len(), 2);
        assert!(report.committed.contains(&0));
    }

    #[test]
    fn conflicting_writers_serialize_under_2pl() {
        let report = run(
            Protocol::TwoPhase {
                scope: LockScope::Composite,
            },
            vec![
                tmpl("a", vec![w(0), w(1)]),
                tmpl("b", vec![w(0), w(1)]),
                tmpl("c", vec![w(1), w(0)]),
            ],
        );
        assert_eq!(report.metrics.committed + report.metrics.failed, 3);
        assert!(report.metrics.committed >= 2);
    }

    #[test]
    fn writes_apply_and_reads_do_not() {
        let report = run(
            Protocol::TwoPhase {
                scope: LockScope::Composite,
            },
            vec![tmpl("t", vec![w(5), r(6)])],
        );
        assert!(report.stores[0].contains_key(&ItemId(5)));
        assert!(!report.stores[0].contains_key(&ItemId(6)));
    }

    #[test]
    fn increments_accumulate() {
        let mut t = Topology::new();
        t.add(
            "counter",
            Protocol::TwoPhase {
                scope: LockScope::Composite,
            },
            CommutativityTable::semantic(),
        );
        let inc = || TxNode::data(OpSpec::increment(ItemId(0)));
        let templates = (0..5)
            .map(|i| TxTemplate {
                name: format!("inc{i}"),
                home: CompId(0),
                body: vec![inc()],
            })
            .collect();
        let report = Engine::new(t, templates, SimConfig::default()).run();
        assert_eq!(report.metrics.committed, 5);
        assert_eq!(report.stores[0][&ItemId(0)], 5);
    }

    #[test]
    fn sgt_commits_conflict_free_workload() {
        let report = run(
            Protocol::Sgt,
            vec![tmpl("a", vec![w(0)]), tmpl("b", vec![w(1)])],
        );
        assert_eq!(report.metrics.committed, 2);
        assert_eq!(report.metrics.aborts, 0);
    }

    #[test]
    fn timestamp_ordering_commits_or_retries() {
        let report = run(
            Protocol::Timestamp,
            vec![tmpl("a", vec![w(0), w(1)]), tmpl("b", vec![w(1), w(0)])],
        );
        assert_eq!(report.metrics.committed, 2);
    }

    #[test]
    fn chaos_protocol_never_blocks_or_aborts() {
        let report = run(
            Protocol::None,
            vec![tmpl("a", vec![w(0), w(1)]), tmpl("b", vec![w(1), w(0)])],
        );
        assert_eq!(report.metrics.committed, 2);
        assert_eq!(report.metrics.aborts, 0);
    }

    #[test]
    fn nested_calls_run_on_child_components() {
        let mut topo = Topology::new();
        let front = topo.add(
            "front",
            Protocol::TwoPhase {
                scope: LockScope::Subtransaction,
            },
            CommutativityTable::read_write(),
        );
        let store = topo.add(
            "store",
            Protocol::TwoPhase {
                scope: LockScope::Subtransaction,
            },
            CommutativityTable::read_write(),
        );
        let template = TxTemplate {
            name: "nested".into(),
            home: front,
            body: vec![TxNode::call(
                store,
                OpSpec::write(ItemId(7)),
                vec![w(3), w(4)],
            )],
        };
        let report = Engine::new(topo, vec![template], SimConfig::default()).run();
        assert_eq!(report.metrics.committed, 1);
        assert_eq!(report.logs[front.index()].len(), 1); // the call op
        assert_eq!(report.logs[store.index()].len(), 2); // the data ops
        assert!(report.stores[store.index()].contains_key(&ItemId(3)));
    }

    #[test]
    fn deadlock_detected_and_resolved() {
        // Two transactions locking (0,1) in opposite orders under composite-
        // scope 2PL: a textbook deadlock; one must abort and retry.
        let report = run(
            Protocol::TwoPhase {
                scope: LockScope::Composite,
            },
            vec![tmpl("a", vec![w(0), w(1)]), tmpl("b", vec![w(1), w(0)])],
        );
        assert_eq!(report.metrics.committed, 2);
        // Depending on arrival spacing a deadlock may or may not form; the
        // property is that the run terminates with both committed.
    }

    #[test]
    fn wound_wait_resolves_deadlocks() {
        // The textbook deadlock workload under wound-wait: both commit, no
        // waits-for cycle ever forms.
        let config = SimConfig {
            deadlock: crate::protocol::DeadlockPolicy::WoundWait,
            ..SimConfig::default()
        };
        let report = Engine::new(
            flat_topology(Protocol::TwoPhase {
                scope: LockScope::Composite,
            }),
            vec![tmpl("a", vec![w(0), w(1)]), tmpl("b", vec![w(1), w(0)])],
            config,
        )
        .run();
        assert_eq!(report.metrics.committed, 2);
    }

    #[test]
    fn wound_wait_runs_stay_comp_c() {
        use compc_core::check;
        for seed in 0..8 {
            let config = SimConfig {
                seed,
                deadlock: crate::protocol::DeadlockPolicy::WoundWait,
                ..SimConfig::default()
            };
            let report = Engine::new(
                flat_topology(Protocol::TwoPhase {
                    scope: LockScope::Composite,
                }),
                vec![
                    tmpl("a", vec![w(0), w(1), r(2)]),
                    tmpl("b", vec![w(1), w(0)]),
                    tmpl("c", vec![w(2), w(0)]),
                ],
                config,
            )
            .run();
            assert_eq!(report.metrics.committed + report.metrics.failed, 3);
            let sys = report.export_system().expect("valid export");
            assert!(check(&sys).is_correct(), "seed {seed}");
        }
    }

    #[test]
    fn determinism_per_seed() {
        let templates = || {
            vec![
                tmpl("a", vec![w(0), w(1), r(2)]),
                tmpl("b", vec![w(1), w(0)]),
                tmpl("c", vec![r(0), w(2)]),
            ]
        };
        let r1 = run(Protocol::Sgt, templates());
        let r2 = run(Protocol::Sgt, templates());
        assert_eq!(r1.metrics.committed, r2.metrics.committed);
        assert_eq!(r1.metrics.end_time, r2.metrics.end_time);
        assert_eq!(r1.logs[0].len(), r2.logs[0].len());
    }

    #[test]
    fn disabled_fault_plan_is_byte_identical_to_no_plan() {
        let templates = || {
            vec![
                tmpl("a", vec![w(0), w(1), r(2)]),
                tmpl("b", vec![w(1), w(0)]),
                tmpl("c", vec![r(0), w(2)]),
            ]
        };
        let base = run(Protocol::Sgt, templates());
        let faulted = Engine::new(
            flat_topology(Protocol::Sgt),
            templates(),
            SimConfig::default(),
        )
        .faults(FaultPlan::new(9)) // empty plan: injects nothing
        .run();
        assert_eq!(base.metrics.end_time, faulted.metrics.end_time);
        assert_eq!(base.metrics.committed, faulted.metrics.committed);
        assert_eq!(base.metrics.ops_executed, faulted.metrics.ops_executed);
        let key = |r: &SimReport| -> Vec<(u32, u64)> {
            r.logs[0].iter().map(|e| (e.tx, e.time)).collect()
        };
        assert_eq!(key(&base), key(&faulted));
        assert!(faulted.faults.is_empty());
        assert_eq!(faulted.fault_stats.total(), 0);
    }

    #[test]
    fn faulted_runs_are_deterministic_per_seed_and_plan() {
        let templates = || {
            vec![
                tmpl("a", vec![w(0), w(1)]),
                tmpl("b", vec![w(1), w(0)]),
                tmpl("c", vec![r(0), w(2)]),
            ]
        };
        let go = || {
            Engine::new(
                flat_topology(Protocol::TwoPhase {
                    scope: LockScope::Composite,
                }),
                templates(),
                SimConfig::default(),
            )
            .faults(FaultPlan::random(11, 1, 100))
            .run()
        };
        let r1 = go();
        let r2 = go();
        assert_eq!(r1.faults, r2.faults);
        assert_eq!(r1.fault_stats, r2.fault_stats);
        assert_eq!(r1.metrics.end_time, r2.metrics.end_time);
        assert_eq!(r1.metrics.committed, r2.metrics.committed);
        assert_eq!(r1.metrics.fault_aborts, r2.metrics.fault_aborts);
    }

    #[test]
    fn crash_aborts_inflight_work_then_recovers() {
        let config = SimConfig {
            arrival_spacing: (0, 0), // all arrive at t=0: surely in flight
            ..SimConfig::default()
        };
        let report = Engine::new(
            flat_topology(Protocol::TwoPhase {
                scope: LockScope::Composite,
            }),
            vec![tmpl("a", vec![w(0), w(1)]), tmpl("b", vec![w(2), w(3)])],
            config,
        )
        .faults(FaultPlan::new(1).crash(CompId(0), 1, 6))
        .run();
        assert_eq!(report.fault_stats.crashes, 1);
        assert_eq!(report.fault_stats.restarts, 1);
        assert!(report.metrics.fault_aborts >= 1, "{:?}", report.metrics);
        // Both transactions recover after the outage and commit.
        assert_eq!(report.metrics.committed, 2);
        let sys = report.export_system().expect("valid export");
        assert!(compc_core::check(&sys).is_correct());
    }

    #[test]
    fn dropped_releases_expire_and_unblock_waiters() {
        let report = Engine::new(
            flat_topology(Protocol::TwoPhase {
                scope: LockScope::Composite,
            }),
            vec![tmpl("a", vec![w(0), w(1)]), tmpl("b", vec![w(0), w(1)])],
            SimConfig::default(),
        )
        .faults(FaultPlan::new(2).drop_releases(1.0, 10))
        .run();
        assert_eq!(report.metrics.committed, 2);
        assert!(report.fault_stats.dropped_releases >= 1);
        assert!(report.fault_stats.lease_expiries >= 1);
        let sys = report.export_system().expect("valid export");
        assert!(compc_core::check(&sys).is_correct());
    }

    #[test]
    fn permanent_op_failures_exhaust_attempts_distinctly() {
        let config = SimConfig {
            max_attempts: 3,
            ..SimConfig::default()
        };
        let report = Engine::new(
            flat_topology(Protocol::TwoPhase {
                scope: LockScope::Composite,
            }),
            vec![tmpl("a", vec![w(0)]), tmpl("b", vec![w(1)])],
            config,
        )
        .faults(FaultPlan::new(3).op_failures(1.0))
        .run();
        // Every attempt dies to an injected failure: both give up, and the
        // exhaustion is visible apart from the abort-reason counters.
        assert_eq!(report.metrics.committed, 0);
        assert_eq!(report.metrics.failed, 2);
        assert_eq!(report.metrics.aborts, 6);
        assert_eq!(report.metrics.fault_aborts, 6);
        assert_eq!(report.metrics.deadlock_aborts, 0);
        assert_eq!(report.fault_stats.op_failures, 6);
    }

    #[test]
    fn stalls_lengthen_the_run_without_changing_outcomes() {
        let templates = || vec![tmpl("a", vec![w(0), w(1)]), tmpl("b", vec![w(2), w(3)])];
        let base = run(
            Protocol::TwoPhase {
                scope: LockScope::Composite,
            },
            templates(),
        );
        let stalled = Engine::new(
            flat_topology(Protocol::TwoPhase {
                scope: LockScope::Composite,
            }),
            templates(),
            SimConfig::default(),
        )
        .faults(FaultPlan::new(4).stalls(1.0, (5, 5)))
        .run();
        assert_eq!(stalled.metrics.committed, base.metrics.committed);
        assert_eq!(stalled.fault_stats.stalls, stalled.metrics.ops_executed);
        assert!(stalled.metrics.end_time > base.metrics.end_time);
    }

    #[test]
    fn abort_rolls_back_store() {
        // Force TO aborts with interleaved writers; final state must equal
        // the effect of committed transactions only, which we can at least
        // bound: every committed writer wrote *something*.
        let report = run(
            Protocol::Timestamp,
            vec![tmpl("a", vec![w(0), w(1)]), tmpl("b", vec![w(0), w(1)])],
        );
        assert_eq!(report.metrics.committed, 2);
        assert!(report.stores[0].contains_key(&ItemId(0)));
    }
}
