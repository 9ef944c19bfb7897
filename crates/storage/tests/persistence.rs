//! File-backed persistence: structures written through a `FileDisk`
//! survive a full close/reopen cycle when re-attached from their
//! persisted metadata (page lists / root pages), the catalog-level
//! re-attachment story for `tidrel` and `btree` representations.

use sos_storage::btree::BTree;
use sos_storage::heap::HeapFile;
use sos_storage::keys::int_key;
use sos_storage::{BufferPool, FileDisk, PageId};
use std::path::PathBuf;
use std::sync::Arc;

fn temp_db_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sos_persist_{}_{}", std::process::id(), name));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("db.pages")
}

#[test]
fn heap_file_survives_reopen() {
    let path = temp_db_path("heap");
    let pages: Vec<PageId>;
    {
        let disk = Arc::new(FileDisk::open(&path).unwrap());
        let pool = BufferPool::new(disk, 16).shared();
        let heap = HeapFile::create(pool.clone()).unwrap();
        for i in 0..500u32 {
            heap.insert(format!("record {i}").as_bytes()).unwrap();
        }
        pages = heap.pages();
        pool.flush_all().unwrap();
    } // pool dropped: only flushed bytes survive
    {
        let disk = Arc::new(FileDisk::open(&path).unwrap());
        let pool = BufferPool::new(disk, 16).shared();
        let heap = HeapFile::from_pages(pool, pages);
        assert_eq!(heap.count().unwrap(), 500);
        let first = heap.scan().next().unwrap().unwrap().1;
        assert!(String::from_utf8(first).unwrap().starts_with("record "));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn btree_survives_reopen_with_root_and_len() {
    let path = temp_db_path("btree");
    let (root, len);
    {
        let disk = Arc::new(FileDisk::open(&path).unwrap());
        let pool = BufferPool::new(disk, 64).shared();
        let tree = BTree::create(pool.clone()).unwrap();
        for i in 0..2000i64 {
            tree.insert(&int_key(i), format!("v{i}").as_bytes())
                .unwrap();
        }
        root = tree.root();
        len = tree.len();
        pool.flush_all().unwrap();
    }
    {
        let disk = Arc::new(FileDisk::open(&path).unwrap());
        let pool = BufferPool::new(disk, 64).shared();
        let tree = BTree::from_root(pool, root, len);
        assert_eq!(tree.len(), 2000);
        assert_eq!(tree.lookup(&int_key(999)).unwrap(), vec![b"v999".to_vec()]);
        let in_range = tree.range(&int_key(100), &int_key(199)).unwrap().count();
        assert_eq!(in_range, 100);
        // And it remains writable after reopen.
        tree.insert(&int_key(5000), b"after reopen").unwrap();
        assert_eq!(tree.len(), 2001);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn unflushed_data_is_lost_flushed_data_is_not() {
    // Durability boundary: eviction and flush_all write pages; dirty
    // frames dropped with the pool do not reach the file.
    let path = temp_db_path("durability");
    let pages;
    {
        let disk = Arc::new(FileDisk::open(&path).unwrap());
        let pool = BufferPool::new(disk, 16).shared();
        let heap = HeapFile::create(pool.clone()).unwrap();
        heap.insert(b"flushed").unwrap();
        pool.flush_all().unwrap();
        heap.insert(b"not flushed").unwrap();
        pages = heap.pages();
        // no flush for the second record
    }
    {
        let disk = Arc::new(FileDisk::open(&path).unwrap());
        let pool = BufferPool::new(disk, 16).shared();
        let heap = HeapFile::from_pages(pool, pages);
        let records: Vec<Vec<u8>> = heap.scan().map(|r| r.unwrap().1).collect();
        assert_eq!(records, vec![b"flushed".to_vec()]);
    }
    std::fs::remove_file(&path).ok();
}
