//! A semantic lock manager: lock compatibility is operation commutativity.

use compc_model::{AccessMode, CommutativityTable, ItemId};
use std::collections::{BTreeMap, VecDeque};

/// A granted lock entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Granted {
    /// Owning composite transaction.
    pub tx: u32,
    /// Owning subtransaction within that composite transaction.
    pub subtx: usize,
    /// Lock mode (the operation's access mode).
    pub mode: AccessMode,
}

/// A waiting request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Waiting {
    /// Requesting composite transaction.
    pub tx: u32,
    /// Requesting subtransaction.
    pub subtx: usize,
    /// Requested mode.
    pub mode: AccessMode,
}

/// Outcome of a lock request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LockOutcome {
    /// Granted immediately.
    Granted,
    /// Blocked behind the listed composite transactions (waits-for targets).
    Blocked(Vec<u32>),
}

/// Per-component lock table with semantic modes and FIFO waiters.
///
/// Fault injection can *orphan* a transaction's grants: a dropped release
/// leaves them held under a lease. Orphaned grants block conflicting
/// requests exactly like live ones until [`LockTable::expire_orphans`]
/// reaps them at (or after) their lease expiry.
#[derive(Clone, Debug, Default)]
pub struct LockTable {
    items: BTreeMap<ItemId, ItemLocks>,
    /// Leases of orphaned composite transactions: tx → expiry tick.
    orphans: BTreeMap<u32, u64>,
}

#[derive(Clone, Debug, Default)]
struct ItemLocks {
    granted: Vec<Granted>,
    waiting: VecDeque<Waiting>,
}

impl LockTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests `mode` on `item` for `(tx, subtx)`. Same-composite holders
    /// never conflict with each other (a composite transaction is one
    /// sequential client). FIFO fairness: a request also waits behind
    /// already-waiting conflicting requests to prevent starvation.
    pub fn request(
        &mut self,
        table: &CommutativityTable,
        item: ItemId,
        tx: u32,
        subtx: usize,
        mode: AccessMode,
    ) -> LockOutcome {
        let locks = self.items.entry(item).or_default();
        let mut blockers: Vec<u32> = locks
            .granted
            .iter()
            .filter(|g| g.tx != tx && !table.modes_commute(g.mode, mode))
            .map(|g| g.tx)
            .collect();
        blockers.extend(
            locks
                .waiting
                .iter()
                .filter(|w| w.tx != tx && !table.modes_commute(w.mode, mode))
                .map(|w| w.tx),
        );
        blockers.sort_unstable();
        blockers.dedup();
        if blockers.is_empty() {
            locks.granted.push(Granted { tx, subtx, mode });
            LockOutcome::Granted
        } else {
            locks.waiting.push_back(Waiting { tx, subtx, mode });
            LockOutcome::Blocked(blockers)
        }
    }

    /// Releases every lock owned by composite transaction `tx` (all its
    /// subtransactions) and removes its waiting entries. Returns the
    /// requests that become grantable, in FIFO order.
    pub fn release_tx(&mut self, table: &CommutativityTable, tx: u32) -> Vec<Waiting> {
        self.release_where(table, |g| g.tx == tx, |w| w.tx == tx)
    }

    /// Releases every lock owned by `(tx, subtx)` specifically. Returns
    /// newly grantable requests.
    pub fn release_subtx(
        &mut self,
        table: &CommutativityTable,
        tx: u32,
        subtx: usize,
    ) -> Vec<Waiting> {
        self.release_where(table, |g| g.tx == tx && g.subtx == subtx, |_| false)
    }

    fn release_where(
        &mut self,
        table: &CommutativityTable,
        drop_granted: impl Fn(&Granted) -> bool,
        drop_waiting: impl Fn(&Waiting) -> bool,
    ) -> Vec<Waiting> {
        let mut woken = Vec::new();
        for locks in self.items.values_mut() {
            locks.granted.retain(|g| !drop_granted(g));
            locks.waiting.retain(|w| !drop_waiting(w));
            // Promote compatible waiters in FIFO order; stop at the first
            // waiter that still conflicts (FIFO fairness).
            while let Some(&w) = locks.waiting.front() {
                let conflicts_granted = locks
                    .granted
                    .iter()
                    .any(|g| g.tx != w.tx && !table.modes_commute(g.mode, w.mode));
                if conflicts_granted {
                    break;
                }
                locks.waiting.pop_front();
                locks.granted.push(Granted {
                    tx: w.tx,
                    subtx: w.subtx,
                    mode: w.mode,
                });
                woken.push(w);
            }
        }
        woken
    }

    /// Removes every *waiting* entry of composite transaction `tx` without
    /// touching its granted locks (used by wound-wait before re-requesting).
    pub fn cancel_waiting(&mut self, tx: u32) {
        for locks in self.items.values_mut() {
            locks.waiting.retain(|w| w.tx != tx);
        }
    }

    /// Whether `(tx)` currently holds any lock.
    #[cfg(test)]
    fn holds_any(&self, tx: u32) -> bool {
        self.items
            .values()
            .any(|l| l.granted.iter().any(|g| g.tx == tx))
    }

    /// Whether `tx` holds or awaits any lock in this table (used to decide
    /// which transactions a component crash takes down).
    pub fn involves(&self, tx: u32) -> bool {
        self.items
            .values()
            .any(|l| l.granted.iter().any(|g| g.tx == tx) || l.waiting.iter().any(|w| w.tx == tx))
    }

    /// Marks every grant of `tx` as orphaned under a lease expiring at
    /// `expires`: the grants stay in place (still blocking conflicting
    /// requests) but nobody will ever release them explicitly. Returns the
    /// number of grants orphaned; when zero, the caller should fall back to
    /// a normal release.
    pub fn orphan_tx(&mut self, tx: u32, expires: u64) -> usize {
        let n = self
            .items
            .values()
            .map(|l| l.granted.iter().filter(|g| g.tx == tx).count())
            .sum();
        if n > 0 {
            let slot = self.orphans.entry(tx).or_insert(expires);
            *slot = (*slot).min(expires);
        }
        n
    }

    /// Reaps every orphaned transaction whose lease has expired by `now`,
    /// releasing its grants and promoting waiters FIFO. Returns the expired
    /// transaction ids and the newly grantable requests.
    pub fn expire_orphans(
        &mut self,
        table: &CommutativityTable,
        now: u64,
    ) -> (Vec<u32>, Vec<Waiting>) {
        let expired: Vec<u32> = self
            .orphans
            .iter()
            .filter(|&(_, &exp)| exp <= now)
            .map(|(&tx, _)| tx)
            .collect();
        if expired.is_empty() {
            return (expired, Vec::new());
        }
        for tx in &expired {
            self.orphans.remove(tx);
        }
        let woken = self.release_where(
            table,
            |g| expired.contains(&g.tx),
            |w| expired.contains(&w.tx),
        );
        (expired, woken)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rw() -> CommutativityTable {
        CommutativityTable::read_write()
    }

    fn item(i: u32) -> ItemId {
        ItemId(i)
    }

    #[test]
    fn shared_reads_granted() {
        let mut lt = LockTable::new();
        assert_eq!(
            lt.request(&rw(), item(0), 1, 0, AccessMode::Read),
            LockOutcome::Granted
        );
        assert_eq!(
            lt.request(&rw(), item(0), 2, 0, AccessMode::Read),
            LockOutcome::Granted
        );
    }

    #[test]
    fn write_blocks_behind_read() {
        let mut lt = LockTable::new();
        lt.request(&rw(), item(0), 1, 0, AccessMode::Read);
        assert_eq!(
            lt.request(&rw(), item(0), 2, 0, AccessMode::Write),
            LockOutcome::Blocked(vec![1])
        );
    }

    #[test]
    fn same_composite_never_blocks_itself() {
        let mut lt = LockTable::new();
        lt.request(&rw(), item(0), 1, 0, AccessMode::Write);
        assert_eq!(
            lt.request(&rw(), item(0), 1, 3, AccessMode::Write),
            LockOutcome::Granted
        );
    }

    #[test]
    fn fifo_wakeup_on_release() {
        let mut lt = LockTable::new();
        lt.request(&rw(), item(0), 1, 0, AccessMode::Write);
        lt.request(&rw(), item(0), 2, 0, AccessMode::Write);
        lt.request(&rw(), item(0), 3, 0, AccessMode::Write);
        let woken = lt.release_tx(&rw(), 1);
        assert_eq!(woken.len(), 1);
        assert_eq!(woken[0].tx, 2);
        let woken = lt.release_tx(&rw(), 2);
        assert_eq!(woken.len(), 1);
        assert_eq!(woken[0].tx, 3);
    }

    #[test]
    fn fifo_blocks_new_request_behind_waiter() {
        // tx1 holds read; tx2 waits for write; a new read (tx3) must queue
        // behind tx2, not starve it.
        let mut lt = LockTable::new();
        lt.request(&rw(), item(0), 1, 0, AccessMode::Read);
        lt.request(&rw(), item(0), 2, 0, AccessMode::Write);
        assert_eq!(
            lt.request(&rw(), item(0), 3, 0, AccessMode::Read),
            LockOutcome::Blocked(vec![2])
        );
    }

    #[test]
    fn semantic_increments_coexist() {
        let sem = CommutativityTable::semantic();
        let mut lt = LockTable::new();
        assert_eq!(
            lt.request(&sem, item(0), 1, 0, AccessMode::Increment),
            LockOutcome::Granted
        );
        assert_eq!(
            lt.request(&sem, item(0), 2, 0, AccessMode::Increment),
            LockOutcome::Granted
        );
        // A read must wait for both increments.
        match lt.request(&sem, item(0), 3, 0, AccessMode::Read) {
            LockOutcome::Blocked(b) => assert_eq!(b, vec![1, 2]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn subtx_release_frees_only_its_locks() {
        let mut lt = LockTable::new();
        lt.request(&rw(), item(0), 1, 5, AccessMode::Write);
        lt.request(&rw(), item(1), 1, 6, AccessMode::Write);
        lt.request(&rw(), item(0), 2, 0, AccessMode::Write);
        let woken = lt.release_subtx(&rw(), 1, 5);
        assert_eq!(woken.len(), 1);
        assert_eq!(woken[0].tx, 2);
        assert!(lt.holds_any(1)); // item(1) lock from subtx 6 remains
    }

    #[test]
    fn orphaned_grants_block_until_lease_expiry() {
        let mut lt = LockTable::new();
        lt.request(&rw(), item(0), 1, 0, AccessMode::Write);
        assert_eq!(lt.orphan_tx(1, 10), 1);
        // An orphaned grant still blocks conflicting requests.
        assert_eq!(
            lt.request(&rw(), item(0), 2, 0, AccessMode::Write),
            LockOutcome::Blocked(vec![1])
        );
        // Before the lease expires nothing is reaped.
        let (expired, woken) = lt.expire_orphans(&rw(), 9);
        assert!(expired.is_empty() && woken.is_empty());
        // At expiry the grant is reaped and the waiter promoted FIFO.
        let (expired, woken) = lt.expire_orphans(&rw(), 10);
        assert_eq!(expired, vec![1]);
        assert_eq!(woken.len(), 1);
        assert_eq!(woken[0].tx, 2);
        assert!(!lt.holds_any(1));
        assert!(lt.holds_any(2));
    }

    #[test]
    fn orphan_with_no_grants_is_a_noop() {
        let mut lt = LockTable::new();
        assert_eq!(lt.orphan_tx(7, 5), 0);
        let (expired, woken) = lt.expire_orphans(&rw(), 100);
        assert!(expired.is_empty() && woken.is_empty());
    }

    #[test]
    fn multiple_wakeups_in_one_release() {
        let mut lt = LockTable::new();
        lt.request(&rw(), item(0), 1, 0, AccessMode::Write);
        lt.request(&rw(), item(0), 2, 0, AccessMode::Read);
        lt.request(&rw(), item(0), 3, 0, AccessMode::Read);
        let woken = lt.release_tx(&rw(), 1);
        assert_eq!(woken.len(), 2); // both readers wake together
    }
}
