//! A clustered B+-tree over the buffer pool.
//!
//! This is the paper's `btree` type constructor (Section 4): a *primary*
//! (clustering) structure storing whole tuples in its leaves, ordered by a
//! memcomparable key derived from the tuple — either a single attribute
//! (`btree(city, pop, int)`) or an arbitrary key expression
//! (`btree(city, fun (c: city) c pop div 1000)`). The tree supports the
//! operators the paper specifies:
//!
//! * `range` / halfrange queries via [`BTree::range`] (with
//!   [`crate::keys::bottom`]/[`crate::keys::top`] as ±infinity),
//! * scanning the leaves (`feed`) via a full range,
//! * the update operators of Section 6: `insert`, `stream_insert`
//!   (repeated insert), `delete` (by exact key+record), `modify` (in-situ
//!   record change) and `re_insert` (delete + insert for key updates).
//!
//! Keys may repeat (relations are bags); duplicates preserve insertion
//! order within a leaf. Deletion is lazy: emptied leaves stay linked, a
//! standard simplification that leaves separator keys valid.

use crate::keys::KeyBytes;
use crate::{BufferPool, PageId, StorageError, StorageResult, PAGE_SIZE};
use std::cell::Cell;
use std::sync::Arc;

/// Largest serialized (key, record) entry allowed. Chosen so any node of
/// two entries can always be split into two valid nodes.
pub const MAX_ENTRY: usize = (PAGE_SIZE - 32) / 2;

const NODE_LEAF: u8 = 1;
const NODE_INNER: u8 = 2;
const NO_PAGE: u32 = u32::MAX;

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        entries: Vec<(KeyBytes, Vec<u8>)>,
        next: Option<PageId>,
    },
    Inner {
        leftmost: PageId,
        /// `entries[i].1` covers keys `>= entries[i].0` (and below the next
        /// separator); `leftmost` covers keys below `entries[0].0`.
        entries: Vec<(KeyBytes, PageId)>,
    },
}

impl Node {
    fn serialized_size(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => {
                7 + entries
                    .iter()
                    .map(|(k, v)| 4 + k.len() + v.len())
                    .sum::<usize>()
            }
            Node::Inner { entries, .. } => {
                7 + entries.iter().map(|(k, _)| 6 + k.len()).sum::<usize>()
            }
        }
    }

    fn write_to(&self, buf: &mut [u8]) {
        buf.fill(0);
        match self {
            Node::Leaf { entries, next } => {
                buf[0] = NODE_LEAF;
                buf[1..3].copy_from_slice(&(entries.len() as u16).to_le_bytes());
                buf[3..7].copy_from_slice(&next.unwrap_or(NO_PAGE).to_le_bytes());
                let mut at = 7;
                for (k, v) in entries {
                    buf[at..at + 2].copy_from_slice(&(k.len() as u16).to_le_bytes());
                    buf[at + 2..at + 4].copy_from_slice(&(v.len() as u16).to_le_bytes());
                    at += 4;
                    buf[at..at + k.len()].copy_from_slice(k);
                    at += k.len();
                    buf[at..at + v.len()].copy_from_slice(v);
                    at += v.len();
                }
            }
            Node::Inner { leftmost, entries } => {
                buf[0] = NODE_INNER;
                buf[1..3].copy_from_slice(&(entries.len() as u16).to_le_bytes());
                buf[3..7].copy_from_slice(&leftmost.to_le_bytes());
                let mut at = 7;
                for (k, child) in entries {
                    buf[at..at + 2].copy_from_slice(&(k.len() as u16).to_le_bytes());
                    at += 2;
                    buf[at..at + k.len()].copy_from_slice(k);
                    at += k.len();
                    buf[at..at + 4].copy_from_slice(&child.to_le_bytes());
                    at += 4;
                }
            }
        }
    }

    fn read_from(buf: &[u8]) -> StorageResult<Node> {
        let mut r = NodeReader::new(buf)?;
        match r.tag {
            NODE_LEAF => {
                let (walk, next) = LeafEntries::new(buf)?;
                let mut entries = Vec::with_capacity(walk.left);
                for e in walk {
                    let (k, v) = e?;
                    entries.push((k.to_vec(), v.to_vec()));
                }
                Ok(Node::Leaf { entries, next })
            }
            NODE_INNER => {
                let leftmost = r.link;
                let mut entries = Vec::with_capacity(r.count);
                for _ in 0..r.count {
                    let klen = r.u16()? as usize;
                    let k = r.take(klen)?.to_vec();
                    let child = r.u32()?;
                    entries.push((k, child));
                }
                Ok(Node::Inner { leftmost, entries })
            }
            t => Err(StorageError::Corrupt(format!("bad btree node tag {t}"))),
        }
    }
}

/// Bounds-checked reading of a serialized node: the header, then
/// entries field by field, each checked against the page before it is
/// read.
struct NodeReader<'a> {
    buf: &'a [u8],
    at: usize,
    tag: u8,
    count: usize,
    /// The leaf's next page or the inner node's leftmost child.
    link: u32,
}

impl<'a> NodeReader<'a> {
    fn new(buf: &'a [u8]) -> StorageResult<NodeReader<'a>> {
        let mut r = NodeReader {
            buf,
            at: 0,
            tag: 0,
            count: 0,
            link: 0,
        };
        r.tag = r.take(1)?[0];
        r.count = r.u16()? as usize;
        r.link = r.u32()?;
        Ok(r)
    }

    fn take(&mut self, n: usize) -> StorageResult<&'a [u8]> {
        let bytes = self.buf.get(self.at..self.at + n).ok_or_else(|| {
            StorageError::Corrupt(format!(
                "btree node field of {n} bytes at offset {} overruns the page",
                self.at
            ))
        })?;
        self.at += n;
        Ok(bytes)
    }

    fn u16(&mut self) -> StorageResult<u16> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> StorageResult<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
}

/// The `(key, record)` entries of one leaf page, read in place from the
/// page bytes in key order. Each entry is checked against the page as it
/// is reached; the first overrun ends the walk with `Corrupt`.
pub struct LeafEntries<'a> {
    r: NodeReader<'a>,
    left: usize,
}

impl<'a> LeafEntries<'a> {
    /// The entries of the leaf serialized in `buf`, and the next leaf in
    /// the chain; `Corrupt` if `buf` is not a leaf.
    fn new(buf: &'a [u8]) -> StorageResult<(LeafEntries<'a>, Option<PageId>)> {
        let r = NodeReader::new(buf)?;
        if r.tag != NODE_LEAF {
            return Err(StorageError::Corrupt("expected a leaf page".into()));
        }
        let next = (r.link != NO_PAGE).then_some(r.link);
        let left = r.count;
        Ok((LeafEntries { r, left }, next))
    }

    fn entry(&mut self) -> StorageResult<(&'a [u8], &'a [u8])> {
        let klen = self.r.u16()? as usize;
        let vlen = self.r.u16()? as usize;
        Ok((self.r.take(klen)?, self.r.take(vlen)?))
    }
}

impl<'a> Iterator for LeafEntries<'a> {
    type Item = StorageResult<(&'a [u8], &'a [u8])>;

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.left))
    }

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let e = self.entry();
        if e.is_err() {
            self.left = 0;
        }
        Some(e)
    }
}

/// A clustered B+-tree handle.
pub struct BTree {
    pool: Arc<BufferPool>,
    root: Cell<PageId>,
    len: Cell<usize>,
}

impl BTree {
    /// Create an empty tree (a single empty leaf as root).
    pub fn create(pool: Arc<BufferPool>) -> StorageResult<Self> {
        let (pid, guard) = pool.allocate()?;
        let root = Node::Leaf {
            entries: Vec::new(),
            next: None,
        };
        root.write_to(&mut guard.write()[..]);
        drop(guard);
        Ok(BTree {
            pool,
            root: Cell::new(pid),
            len: Cell::new(0),
        })
    }

    /// Re-open a tree from its root page id and record count.
    pub fn from_root(pool: Arc<BufferPool>, root: PageId, len: usize) -> Self {
        BTree {
            pool,
            root: Cell::new(root),
            len: Cell::new(len),
        }
    }

    /// The current root page (for catalog persistence).
    pub fn root(&self) -> PageId {
        self.root.get()
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.len.get()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn read_node(&self, pid: PageId) -> StorageResult<Node> {
        let guard = self.pool.fetch(pid)?;
        let buf = guard.read();
        Node::read_from(&buf[..])
    }

    fn write_node(&self, pid: PageId, node: &Node) -> StorageResult<()> {
        let guard = self.pool.fetch(pid)?;
        node.write_to(&mut guard.write()[..]);
        Ok(())
    }

    fn alloc_node(&self, node: &Node) -> StorageResult<PageId> {
        let (pid, guard) = self.pool.allocate()?;
        node.write_to(&mut guard.write()[..]);
        Ok(pid)
    }

    /// Insert `record` under `key`. Duplicate keys are allowed.
    pub fn insert(&self, key: &[u8], record: &[u8]) -> StorageResult<()> {
        if 4 + key.len() + record.len() > MAX_ENTRY {
            return Err(StorageError::RecordTooLarge {
                size: key.len() + record.len(),
                max: MAX_ENTRY,
            });
        }
        let root = self.root.get();
        if let Some((sep, right)) = self.insert_rec(root, key, record)? {
            let new_root = Node::Inner {
                leftmost: root,
                entries: vec![(sep, right)],
            };
            let new_pid = self.alloc_node(&new_root)?;
            self.root.set(new_pid);
        }
        self.len.set(self.len.get() + 1);
        Ok(())
    }

    /// Returns `Some((separator, new_right_page))` when the child split.
    fn insert_rec(
        &self,
        pid: PageId,
        key: &[u8],
        record: &[u8],
    ) -> StorageResult<Option<(KeyBytes, PageId)>> {
        let mut node = self.read_node(pid)?;
        match &mut node {
            Node::Leaf { entries, next: _ } => {
                // Insert after existing duplicates (stable order).
                let pos = entries.partition_point(|(k, _)| k.as_slice() <= key);
                entries.insert(pos, (key.to_vec(), record.to_vec()));
                if node.serialized_size() <= PAGE_SIZE {
                    self.write_node(pid, &node)?;
                    return Ok(None);
                }
                // Split by accumulated bytes so both halves fit.
                let (entries, next) = match node {
                    Node::Leaf { entries, next } => (entries, next),
                    _ => unreachable!(),
                };
                let total: usize = entries.iter().map(|(k, v)| 4 + k.len() + v.len()).sum();
                let mut acc = 0;
                let mut split = entries.len() - 1;
                for (i, (k, v)) in entries.iter().enumerate() {
                    acc += 4 + k.len() + v.len();
                    if acc >= total / 2 && i + 1 < entries.len() {
                        split = i + 1;
                        break;
                    }
                }
                let right_entries = entries[split..].to_vec();
                let left_entries = entries[..split].to_vec();
                let sep = right_entries[0].0.clone();
                let right = Node::Leaf {
                    entries: right_entries,
                    next,
                };
                let right_pid = self.alloc_node(&right)?;
                let left = Node::Leaf {
                    entries: left_entries,
                    next: Some(right_pid),
                };
                self.write_node(pid, &left)?;
                Ok(Some((sep, right_pid)))
            }
            Node::Inner { leftmost, entries } => {
                let child_idx = entries.partition_point(|(k, _)| k.as_slice() <= key);
                let child = if child_idx == 0 {
                    *leftmost
                } else {
                    entries[child_idx - 1].1
                };
                let Some((sep, new_child)) = self.insert_rec(child, key, record)? else {
                    return Ok(None);
                };
                let pos = entries.partition_point(|(k, _)| k.as_slice() <= sep.as_slice());
                entries.insert(pos, (sep, new_child));
                if node.serialized_size() <= PAGE_SIZE {
                    self.write_node(pid, &node)?;
                    return Ok(None);
                }
                let (leftmost, entries) = match node {
                    Node::Inner { leftmost, entries } => (leftmost, entries),
                    _ => unreachable!(),
                };
                let mid = entries.len() / 2;
                let (promoted, right_of_promoted) = entries[mid].clone();
                let right = Node::Inner {
                    leftmost: right_of_promoted,
                    entries: entries[mid + 1..].to_vec(),
                };
                let right_pid = self.alloc_node(&right)?;
                let left = Node::Inner {
                    leftmost,
                    entries: entries[..mid].to_vec(),
                };
                self.write_node(pid, &left)?;
                Ok(Some((promoted, right_pid)))
            }
        }
    }

    /// Find the *leftmost* leaf that may contain `key` (public so owned
    /// cursors in higher layers can drive their own leaf walk). Duplicates
    /// equal to a separator can remain in the leaf left of it after a
    /// split, so the descent uses strict comparison and callers walk the
    /// leaf chain.
    pub fn find_leaf(&self, key: &[u8]) -> StorageResult<PageId> {
        let mut pid = self.root.get();
        loop {
            match self.read_node(pid)? {
                Node::Leaf { .. } => return Ok(pid),
                Node::Inner { leftmost, entries } => {
                    let idx = entries.partition_point(|(k, _)| k.as_slice() < key);
                    pid = if idx == 0 {
                        leftmost
                    } else {
                        entries[idx - 1].1
                    };
                }
            }
        }
    }

    /// Hand `f` the entries of leaf `pid`, read in place from the pinned
    /// frame under one fetch and read borrow (no per-entry copy), and
    /// return `f`'s result with the next leaf in the chain — the
    /// page-at-a-time path of the scan cursors. `f` must not write to
    /// this page.
    pub fn visit_leaf<R, E, F>(&self, pid: PageId, f: F) -> Result<(R, Option<PageId>), E>
    where
        E: From<StorageError>,
        F: FnOnce(LeafEntries<'_>) -> Result<R, E>,
    {
        let guard = self.pool.fetch(pid)?;
        let buf = guard.read();
        let (entries, next) = LeafEntries::new(&buf[..])?;
        Ok((f(entries)?, next))
    }

    /// Range query: all records with `lo <= key <= hi`, in key order.
    /// Use [`crate::keys::bottom`]/[`crate::keys::top`] for halfranges.
    pub fn range(&self, lo: &[u8], hi: &[u8]) -> StorageResult<RangeScan<'_>> {
        let leaf = self.find_leaf(lo)?;
        Ok(RangeScan {
            tree: self,
            hi: hi.to_vec(),
            lo: Some(lo.to_vec()),
            current: Some(leaf),
            entries: Vec::new(),
            idx: 0,
            primed: false,
        })
    }

    /// Scan every record in key order (the `feed` of a B-tree).
    pub fn scan(&self) -> StorageResult<RangeScan<'_>> {
        self.range(&crate::keys::bottom(), &crate::keys::top())
    }

    /// Exact lookups: all records stored under exactly `key`.
    pub fn lookup(&self, key: &[u8]) -> StorageResult<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        for item in self.range(key, key)? {
            let (_, v) = item?;
            out.push(v);
        }
        Ok(out)
    }

    /// Delete the first record equal to `record` stored under `key`.
    /// Returns whether a record was removed. This backs the paper's
    /// stream-driven `delete` operator of Section 6.
    pub fn delete_exact(&self, key: &[u8], record: &[u8]) -> StorageResult<bool> {
        let mut pid = self.find_leaf(key)?;
        loop {
            let mut node = self.read_node(pid)?;
            let Node::Leaf { entries, next } = &mut node else {
                return Err(StorageError::Corrupt("leaf expected".into()));
            };
            let mut past = false;
            for i in 0..entries.len() {
                match entries[i].0.as_slice().cmp(key) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => {
                        if entries[i].1 == record {
                            entries.remove(i);
                            let removed_node = node;
                            self.write_node(pid, &removed_node)?;
                            self.len.set(self.len.get().saturating_sub(1));
                            return Ok(true);
                        }
                    }
                    std::cmp::Ordering::Greater => {
                        past = true;
                        break;
                    }
                }
            }
            if past {
                return Ok(false);
            }
            match next {
                Some(n) => pid = *n,
                None => return Ok(false),
            }
        }
    }

    /// Replace the first record equal to `old` under `key` with `new`
    /// (the paper's in-situ `modify` — the key value must be unchanged).
    pub fn modify_exact(&self, key: &[u8], old: &[u8], new: &[u8]) -> StorageResult<bool> {
        if 4 + key.len() + new.len() > MAX_ENTRY {
            return Err(StorageError::RecordTooLarge {
                size: key.len() + new.len(),
                max: MAX_ENTRY,
            });
        }
        if !self.delete_exact(key, old)? {
            return Ok(false);
        }
        self.insert(key, new)?;
        Ok(true)
    }

    /// Delete + insert under a new key (the paper's `re_insert`, used for
    /// key updates).
    pub fn re_insert(
        &self,
        old_key: &[u8],
        old_record: &[u8],
        new_key: &[u8],
        new_record: &[u8],
    ) -> StorageResult<bool> {
        if !self.delete_exact(old_key, old_record)? {
            return Ok(false);
        }
        self.insert(new_key, new_record)?;
        Ok(true)
    }

    /// Rebuild the tree by bulk-loading its live entries into fresh,
    /// densely packed pages (the complement of lazy deletion: after mass
    /// deletions, `rebuild` reclaims empty leaves and restores minimal
    /// height). Old pages are abandoned to the disk manager.
    pub fn rebuild(&self) -> StorageResult<()> {
        // Collect all entries in key order.
        let entries: Vec<(KeyBytes, Vec<u8>)> = self.scan()?.collect::<StorageResult<Vec<_>>>()?;
        self.build_from_entries(entries)
    }

    /// Bulk-load a sorted entry set into an empty tree: the leaves are
    /// packed left to right in one pass (no per-insert root-to-leaf
    /// descent or splits), then the inner levels are built bottom-up —
    /// the classic sorted B-tree build. The tree must be empty and
    /// `entries` sorted by key; both are checked.
    pub fn bulk_load(&self, entries: Vec<(KeyBytes, Vec<u8>)>) -> StorageResult<()> {
        if !self.is_empty() {
            return Err(StorageError::Corrupt(
                "bulk_load requires an empty B-tree".into(),
            ));
        }
        for w in entries.windows(2) {
            if w[0].0 > w[1].0 {
                return Err(StorageError::Corrupt(
                    "bulk_load requires entries sorted by key".into(),
                ));
            }
        }
        for (k, v) in &entries {
            if 4 + k.len() + v.len() > MAX_ENTRY {
                return Err(StorageError::RecordTooLarge {
                    size: k.len() + v.len(),
                    max: MAX_ENTRY,
                });
            }
        }
        let n = entries.len();
        self.build_from_entries(entries)?;
        self.len.set(n);
        Ok(())
    }

    /// Shared packing pass behind [`BTree::rebuild`] and
    /// [`BTree::bulk_load`]: write `entries` (already in key order) into
    /// fresh, densely packed pages and point the root at them. Does not
    /// touch `len` — rebuild preserves it, bulk_load sets it.
    fn build_from_entries(&self, entries: Vec<(KeyBytes, Vec<u8>)>) -> StorageResult<()> {
        // Build leaves left to right, filling each page.
        type Entries = Vec<(KeyBytes, Vec<u8>)>;
        let mut leaves: Vec<(KeyBytes, PageId)> = Vec::new(); // (first key, page)
        let mut current: Entries = Vec::new();
        let mut pending_pages: Vec<(Entries, PageId)> = Vec::new();
        let flush_leaf = |current: &mut Entries,
                          leaves: &mut Vec<(KeyBytes, PageId)>,
                          pending: &mut Vec<(Entries, PageId)>|
         -> StorageResult<()> {
            if current.is_empty() {
                return Ok(());
            }
            let (pid, guard) = self.pool.allocate()?;
            drop(guard);
            leaves.push((current[0].0.clone(), pid));
            pending.push((std::mem::take(current), pid));
            Ok(())
        };
        for (k, v) in entries {
            let probe = Node::Leaf {
                entries: {
                    let mut e = current.clone();
                    e.push((k.clone(), v.clone()));
                    e
                },
                next: None,
            };
            // Fill leaves to ~80% so post-rebuild inserts do not split
            // immediately.
            if probe.serialized_size() > (PAGE_SIZE * 4) / 5 && !current.is_empty() {
                flush_leaf(&mut current, &mut leaves, &mut pending_pages)?;
            }
            current.push((k, v));
        }
        flush_leaf(&mut current, &mut leaves, &mut pending_pages)?;
        if pending_pages.is_empty() {
            // Empty tree: a single fresh empty leaf.
            let root = self.alloc_node(&Node::Leaf {
                entries: Vec::new(),
                next: None,
            })?;
            self.root.set(root);
            return Ok(());
        }
        // Write the leaves with their chain pointers.
        for (i, (entries, pid)) in pending_pages.iter().enumerate() {
            let next = pending_pages.get(i + 1).map(|(_, p)| *p);
            self.write_node(
                *pid,
                &Node::Leaf {
                    entries: entries.clone(),
                    next,
                },
            )?;
        }
        // Build inner levels bottom-up.
        let mut level: Vec<(KeyBytes, PageId)> = leaves;
        while level.len() > 1 {
            let mut next_level: Vec<(KeyBytes, PageId)> = Vec::new();
            let mut i = 0;
            while i < level.len() {
                let first_key = level[i].0.clone();
                let leftmost = level[i].1;
                let mut entries: Vec<(KeyBytes, PageId)> = Vec::new();
                let mut node = Node::Inner {
                    leftmost,
                    entries: entries.clone(),
                };
                i += 1;
                while i < level.len() {
                    let mut probe_entries = entries.clone();
                    probe_entries.push(level[i].clone());
                    let probe = Node::Inner {
                        leftmost,
                        entries: probe_entries.clone(),
                    };
                    if probe.serialized_size() > (PAGE_SIZE * 4) / 5 {
                        break;
                    }
                    entries = probe_entries;
                    node = probe;
                    i += 1;
                }
                let pid = self.alloc_node(&node)?;
                next_level.push((first_key, pid));
            }
            level = next_level;
        }
        self.root.set(level[0].1);
        Ok(())
    }

    /// Number of B-tree node pages reachable from the root (a density
    /// metric used by tests and the experiments harness).
    pub fn page_count(&self) -> StorageResult<usize> {
        fn walk(tree: &BTree, pid: PageId) -> StorageResult<usize> {
            match tree.read_node(pid)? {
                Node::Leaf { .. } => Ok(1),
                Node::Inner { leftmost, entries } => {
                    let mut n = 1 + walk(tree, leftmost)?;
                    for (_, child) in entries {
                        n += walk(tree, child)?;
                    }
                    Ok(n)
                }
            }
        }
        walk(self, self.root.get())
    }

    /// Height of the tree (1 = a single leaf).
    pub fn height(&self) -> StorageResult<usize> {
        let mut pid = self.root.get();
        let mut h = 1;
        loop {
            match self.read_node(pid)? {
                Node::Leaf { .. } => return Ok(h),
                Node::Inner { leftmost, .. } => {
                    pid = leftmost;
                    h += 1;
                }
            }
        }
    }
}

/// Iterator over `(key, record)` pairs of a range query.
pub struct RangeScan<'a> {
    tree: &'a BTree,
    lo: Option<KeyBytes>,
    hi: KeyBytes,
    current: Option<PageId>,
    entries: Vec<(KeyBytes, Vec<u8>)>,
    idx: usize,
    primed: bool,
}

impl Iterator for RangeScan<'_> {
    type Item = StorageResult<(KeyBytes, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.idx < self.entries.len() {
                let (k, v) = &self.entries[self.idx];
                if k.as_slice() > self.hi.as_slice() {
                    self.current = None;
                    return None;
                }
                self.idx += 1;
                return Some(Ok((k.clone(), v.clone())));
            }
            let pid = self.current?;
            match self.tree.read_node(pid) {
                Ok(Node::Leaf { entries, next }) => {
                    self.entries = entries;
                    self.idx = if !self.primed {
                        self.primed = true;
                        let lo = self.lo.take().unwrap_or_default();
                        self.entries
                            .partition_point(|(k, _)| k.as_slice() < lo.as_slice())
                    } else {
                        0
                    };
                    self.current = next;
                    if self.idx >= self.entries.len() && self.current.is_none() {
                        return None;
                    }
                }
                Ok(Node::Inner { .. }) => {
                    return Some(Err(StorageError::Corrupt("leaf expected in scan".into())))
                }
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{bottom, int_key, str_key, top};
    use crate::mem_pool;

    fn tree() -> BTree {
        BTree::create(mem_pool(256)).unwrap()
    }

    #[test]
    fn insert_and_lookup_small() {
        let t = tree();
        t.insert(&int_key(5), b"five").unwrap();
        t.insert(&int_key(3), b"three").unwrap();
        t.insert(&int_key(8), b"eight").unwrap();
        assert_eq!(t.lookup(&int_key(3)).unwrap(), vec![b"three".to_vec()]);
        assert_eq!(t.lookup(&int_key(4)).unwrap(), Vec::<Vec<u8>>::new());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn range_returns_sorted_inclusive_bounds() {
        let t = tree();
        for i in (0..100).rev() {
            t.insert(&int_key(i), format!("v{i}").as_bytes()).unwrap();
        }
        let got: Vec<i64> = t
            .range(&int_key(10), &int_key(20))
            .unwrap()
            .map(|r| {
                let (_, v) = r.unwrap();
                String::from_utf8(v).unwrap()[1..].parse().unwrap()
            })
            .collect();
        assert_eq!(got, (10..=20).collect::<Vec<i64>>());
    }

    #[test]
    fn many_inserts_force_splits_and_stay_sorted() {
        let t = tree();
        let n = 5000i64;
        // Insert in a scrambled order.
        let mut order: Vec<i64> = (0..n).collect();
        for i in 0..n as usize {
            order.swap(i, (i * 2654435761) % n as usize);
        }
        for i in &order {
            t.insert(&int_key(*i), format!("payload for {i}").as_bytes())
                .unwrap();
        }
        assert_eq!(t.len(), n as usize);
        assert!(t.height().unwrap() >= 2, "tree should have split");
        let keys: Vec<KeyBytes> = t.scan().unwrap().map(|r| r.unwrap().0).collect();
        assert_eq!(keys.len(), n as usize);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "scan must be sorted");
    }

    #[test]
    fn duplicate_keys_all_retrievable() {
        let t = tree();
        for i in 0..50 {
            t.insert(&int_key(7), format!("dup{i}").as_bytes()).unwrap();
        }
        t.insert(&int_key(6), b"before").unwrap();
        t.insert(&int_key(8), b"after").unwrap();
        assert_eq!(t.lookup(&int_key(7)).unwrap().len(), 50);
    }

    #[test]
    fn halfrange_queries_with_bottom_and_top() {
        let t = tree();
        for i in 0..100 {
            t.insert(&int_key(i), b"x").unwrap();
        }
        // delete (cities, pop <= 10000) becomes range(bottom, key) in §6.
        let low: Vec<_> = t.range(&bottom(), &int_key(30)).unwrap().collect();
        assert_eq!(low.len(), 31);
        let high: Vec<_> = t.range(&int_key(70), &top()).unwrap().collect();
        assert_eq!(high.len(), 30);
    }

    #[test]
    fn string_keys_range() {
        let t = tree();
        for name in ["Aachen", "Berlin", "Bonn", "Celle", "Dresden"] {
            t.insert(&str_key(name), name.as_bytes()).unwrap();
        }
        let got: Vec<Vec<u8>> = t
            .range(&str_key("B"), &str_key("C"))
            .unwrap()
            .map(|r| r.unwrap().1)
            .collect();
        assert_eq!(got, vec![b"Berlin".to_vec(), b"Bonn".to_vec()]);
    }

    #[test]
    fn delete_exact_removes_one_duplicate() {
        let t = tree();
        t.insert(&int_key(1), b"a").unwrap();
        t.insert(&int_key(1), b"b").unwrap();
        t.insert(&int_key(1), b"a").unwrap();
        assert!(t.delete_exact(&int_key(1), b"a").unwrap());
        assert_eq!(t.len(), 2);
        let left = t.lookup(&int_key(1)).unwrap();
        assert_eq!(left, vec![b"b".to_vec(), b"a".to_vec()]);
        assert!(!t.delete_exact(&int_key(1), b"zzz").unwrap());
    }

    #[test]
    fn delete_across_leaf_boundary() {
        let t = tree();
        let big = vec![9u8; 800];
        for _ in 0..40 {
            t.insert(&int_key(5), &big).unwrap(); // forces several leaves of key 5
        }
        let mut removed = 0;
        while t.delete_exact(&int_key(5), &big).unwrap() {
            removed += 1;
        }
        assert_eq!(removed, 40);
        assert!(t.is_empty());
    }

    #[test]
    fn modify_and_re_insert() {
        let t = tree();
        t.insert(&int_key(10), b"old").unwrap();
        assert!(t.modify_exact(&int_key(10), b"old", b"new").unwrap());
        assert_eq!(t.lookup(&int_key(10)).unwrap(), vec![b"new".to_vec()]);
        // Key update: 10 -> 11 (the paper's pop * 1.1 example shape).
        assert!(t
            .re_insert(&int_key(10), b"new", &int_key(11), b"new")
            .unwrap());
        assert!(t.lookup(&int_key(10)).unwrap().is_empty());
        assert_eq!(t.lookup(&int_key(11)).unwrap(), vec![b"new".to_vec()]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn rejects_oversized_entry() {
        let t = tree();
        let huge = vec![0u8; MAX_ENTRY + 1];
        assert!(matches!(
            t.insert(&int_key(1), &huge),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn reopen_from_root() {
        let pool = mem_pool(256);
        let t = BTree::create(pool.clone()).unwrap();
        for i in 0..500 {
            t.insert(&int_key(i), b"r").unwrap();
        }
        let (root, len) = (t.root(), t.len());
        drop(t);
        let t2 = BTree::from_root(pool, root, len);
        assert_eq!(t2.len(), 500);
        assert_eq!(t2.lookup(&int_key(250)).unwrap().len(), 1);
    }

    #[test]
    fn scan_empty_tree() {
        let t = tree();
        assert_eq!(t.scan().unwrap().count(), 0);
    }
}

#[cfg(test)]
mod rebuild_tests {
    use super::*;
    use crate::keys::int_key;
    use crate::mem_pool;

    #[test]
    fn rebuild_after_mass_deletion_shrinks_the_tree() {
        let t = BTree::create(mem_pool(512)).unwrap();
        let payload = vec![1u8; 200];
        for i in 0..5000i64 {
            t.insert(&int_key(i), &payload).unwrap();
        }
        // Delete 95% of the records; lazy deletion leaves pages behind.
        for i in 0..5000i64 {
            if i % 20 != 0 {
                t.delete_exact(&int_key(i), &payload).unwrap();
            }
        }
        let pages_before = t.page_count().unwrap();
        let entries_before: Vec<_> = t.scan().unwrap().map(|r| r.unwrap()).collect();
        t.rebuild().unwrap();
        let pages_after = t.page_count().unwrap();
        let entries_after: Vec<_> = t.scan().unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(entries_before, entries_after, "contents unchanged");
        assert!(
            pages_after * 4 < pages_before,
            "rebuild must reclaim pages: {pages_before} -> {pages_after}"
        );
        // The tree remains fully usable.
        assert_eq!(t.lookup(&int_key(40)).unwrap().len(), 1);
        t.insert(&int_key(7), &payload).unwrap();
        assert_eq!(t.len(), entries_after.len() + 1);
    }

    #[test]
    fn rebuild_of_empty_and_tiny_trees() {
        let t = BTree::create(mem_pool(64)).unwrap();
        t.rebuild().unwrap();
        assert_eq!(t.scan().unwrap().count(), 0);
        t.insert(&int_key(1), b"one").unwrap();
        t.rebuild().unwrap();
        assert_eq!(t.lookup(&int_key(1)).unwrap(), vec![b"one".to_vec()]);
        assert_eq!(t.height().unwrap(), 1);
    }

    #[test]
    fn rebuild_preserves_duplicates_and_order() {
        let t = BTree::create(mem_pool(256)).unwrap();
        for i in 0..300i64 {
            t.insert(&int_key(i % 10), format!("dup{i}").as_bytes())
                .unwrap();
        }
        t.rebuild().unwrap();
        assert_eq!(t.len(), 300);
        assert_eq!(t.lookup(&int_key(3)).unwrap().len(), 30);
        let keys: Vec<KeyBytes> = t.scan().unwrap().map(|r| r.unwrap().0).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn bulk_load_matches_per_insert() {
        let bulk = BTree::create(mem_pool(512)).unwrap();
        let serial = BTree::create(mem_pool(512)).unwrap();
        let entries: Vec<(KeyBytes, Vec<u8>)> = (0..4000i64)
            .map(|i| (int_key(i), format!("payload {i}").into_bytes()))
            .collect();
        for (k, v) in &entries {
            serial.insert(k, v).unwrap();
        }
        bulk.bulk_load(entries.clone()).unwrap();
        assert_eq!(bulk.len(), 4000);
        let from_bulk: Vec<_> = bulk.scan().unwrap().map(|r| r.unwrap()).collect();
        let from_serial: Vec<_> = serial.scan().unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(from_bulk, from_serial);
        // Sorted build packs densely: no worse than the split-grown tree.
        assert!(bulk.page_count().unwrap() <= serial.page_count().unwrap());
        // Still usable for point queries and further inserts.
        assert_eq!(bulk.lookup(&int_key(1234)).unwrap().len(), 1);
        bulk.insert(&int_key(4000), b"more").unwrap();
        assert_eq!(bulk.len(), 4001);
    }

    #[test]
    fn bulk_load_rejects_nonempty_and_unsorted() {
        let t = BTree::create(mem_pool(64)).unwrap();
        t.insert(&int_key(1), b"x").unwrap();
        assert!(t.bulk_load(vec![(int_key(2), b"y".to_vec())]).is_err());
        let t2 = BTree::create(mem_pool(64)).unwrap();
        assert!(t2
            .bulk_load(vec![
                (int_key(5), b"a".to_vec()),
                (int_key(3), b"b".to_vec())
            ])
            .is_err());
        // Order unaffected by the failed loads.
        assert_eq!(t2.len(), 0);
    }

    #[test]
    fn bulk_load_empty_is_a_noop() {
        let t = BTree::create(mem_pool(64)).unwrap();
        t.bulk_load(Vec::new()).unwrap();
        assert_eq!(t.len(), 0);
        t.insert(&int_key(1), b"one").unwrap();
        assert_eq!(t.lookup(&int_key(1)).unwrap().len(), 1);
    }
}
