//! Statement transactions: the commit boundary of the update operators.
//!
//! Section 6 of the paper treats updates as operators translated by the
//! same rule machinery as queries; durability gives each update
//! *statement* transactional semantics. A [`StatementTx`] brackets one
//! statement's evaluation over a WAL-backed buffer pool: pages the
//! update operators dirty are fenced from the data disk (no-steal) until
//! [`StatementTx::commit`] logs their after-images and the commit
//! marker. Dropping the guard without committing — the `?`-propagation
//! path out of a failed statement — aborts, restoring every touched
//! page, so a half-applied `insert`/`delete`/`modify` can never be
//! observed, in memory or after a crash.
//!
//! Over a pool without a WAL both `begin` and `commit` are no-ops, so
//! the system layer can bracket statements unconditionally.
//!
//! The commit writes the log inline, on the committing thread. What
//! "commit returned `Ok`" buys depends on the pool's `SyncPolicy`:
//! under `PerCommit` the log was also synced, so the statement is
//! durable; under `NoSync` it was written but not synced, and the
//! statement becomes durable with a later sync. Atomicity is identical
//! in both — recovery replays a statement entirely or not at all.

use crate::{ExecError, ExecResult};
use sos_storage::BufferPool;
use std::sync::Arc;

/// RAII guard for one statement's transaction. Commit consumes the
/// guard; dropping it uncommitted aborts.
pub struct StatementTx {
    pool: Arc<BufferPool>,
    committed: bool,
}

impl StatementTx {
    /// Open a transaction on `pool`. Fails if one is already open (the
    /// engine is single-writer: statements are serialized).
    pub fn begin(pool: Arc<BufferPool>) -> ExecResult<StatementTx> {
        pool.begin_tx().map_err(ExecError::Storage)?;
        Ok(StatementTx {
            pool,
            committed: false,
        })
    }

    /// Commit: log after-images of every dirtied page plus `meta` (the
    /// system layer's serialized catalog snapshot) and sync the log.
    /// On error the transaction is rolled back before returning.
    pub fn commit(mut self, meta: Option<&[u8]>) -> ExecResult<()> {
        match self.pool.commit_tx(meta) {
            Ok(()) => {
                self.committed = true;
                Ok(())
            }
            Err(e) => {
                // The drop below would abort anyway; do it eagerly so
                // the caller sees a consistent pool alongside the error.
                self.committed = true;
                let _ = self.pool.abort_tx();
                Err(ExecError::Storage(e))
            }
        }
    }
}

impl Drop for StatementTx {
    fn drop(&mut self) {
        if !self.committed {
            let _ = self.pool.abort_tx();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_storage::{DiskManager, MemDisk, Wal};

    fn wal_pool() -> Arc<BufferPool> {
        let data: Arc<dyn DiskManager> = Arc::new(MemDisk::new());
        let wal_disk: Arc<dyn DiskManager> = Arc::new(MemDisk::new());
        let (wal, _, _) = Wal::recover(wal_disk, &data).unwrap();
        BufferPool::with_wal(data, 8, Arc::new(wal)).shared()
    }

    #[test]
    fn drop_without_commit_aborts() {
        let pool = wal_pool();
        let pid;
        {
            let _tx = StatementTx::begin(Arc::clone(&pool)).unwrap();
            let (p, g) = pool.allocate().unwrap();
            g.write()[0] = 9;
            drop(g);
            pid = p;
            // `_tx` dropped here: abort.
        }
        let g = pool.fetch(pid).unwrap();
        assert_eq!(g.read()[0], 0, "dropped guard rolled the write back");
    }

    #[test]
    fn commit_makes_writes_stick() {
        let pool = wal_pool();
        let tx = StatementTx::begin(Arc::clone(&pool)).unwrap();
        let (pid, g) = pool.allocate().unwrap();
        g.write()[0] = 9;
        drop(g);
        tx.commit(None).unwrap();
        let g = pool.fetch(pid).unwrap();
        assert_eq!(g.read()[0], 9);
        assert_eq!(pool.wal_stats().commits, 1);
    }

    #[test]
    fn no_wal_pool_is_a_transparent_noop() {
        let pool = sos_storage::mem_pool(4);
        let tx = StatementTx::begin(Arc::clone(&pool)).unwrap();
        let (pid, g) = pool.allocate().unwrap();
        g.write()[0] = 3;
        drop(g);
        tx.commit(None).unwrap();
        let g = pool.fetch(pid).unwrap();
        assert_eq!(g.read()[0], 3);
    }
}
