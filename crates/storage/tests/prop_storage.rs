//! Property-based tests for the storage engine: the B-tree against a
//! `BTreeMap`-based model, the heap file against a vector model,
//! interleaved heap scans against the buffer pool's accounting, the
//! slotted page against a map model, and the memcomparable key encoding
//! against direct value comparison.

use proptest::prelude::*;
use sos_storage::btree::BTree;
use sos_storage::field::{decode_record, encode_record, Field};
use sos_storage::heap::{HeapFile, HeapScan};
use sos_storage::keys;
use sos_storage::{mem_pool, BufferPool, MemDisk, TupleId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Key encoding
// ---------------------------------------------------------------------

proptest! {
    /// int keys compare exactly like the integers they encode.
    #[test]
    fn int_key_order_matches(a in any::<i64>(), b in any::<i64>()) {
        prop_assert_eq!(keys::int_key(a).cmp(&keys::int_key(b)), a.cmp(&b));
    }

    /// string keys compare exactly like the strings (bytewise), including
    /// embedded NULs and prefixes.
    #[test]
    fn str_key_order_matches(a in ".{0,24}", b in ".{0,24}") {
        prop_assert_eq!(
            keys::str_key(&a).cmp(&keys::str_key(&b)),
            a.as_bytes().cmp(b.as_bytes())
        );
    }

    /// real keys compare like the (non-NaN) doubles.
    #[test]
    fn real_key_order_matches(a in -1.0e12f64..1.0e12, b in -1.0e12f64..1.0e12) {
        prop_assert_eq!(keys::real_key(a).cmp(&keys::real_key(b)), a.total_cmp(&b));
    }

    /// every encoded key sits strictly between bottom and top.
    #[test]
    fn bottom_top_bracket(v in any::<i64>(), s in ".{0,16}") {
        prop_assert!(keys::bottom() < keys::int_key(v));
        prop_assert!(keys::int_key(v) < keys::top());
        prop_assert!(keys::bottom() < keys::str_key(&s));
        prop_assert!(keys::str_key(&s) < keys::top());
    }
}

// ---------------------------------------------------------------------
// Record encoding
// ---------------------------------------------------------------------

fn arb_field() -> impl Strategy<Value = Field> {
    prop_oneof![
        any::<i64>().prop_map(Field::Int),
        (-1.0e9f64..1.0e9).prop_map(Field::Real),
        ".{0,32}".prop_map(Field::Str),
        any::<bool>().prop_map(Field::Bool),
    ]
}

proptest! {
    /// Arbitrary records of atomic fields round-trip bytewise.
    #[test]
    fn record_roundtrip(fields in prop::collection::vec(arb_field(), 0..8)) {
        let enc = encode_record(&fields);
        prop_assert_eq!(decode_record(&enc).unwrap(), fields);
    }
}

/// Any field kind, polygons included.
fn arb_any_field() -> impl Strategy<Value = Field> {
    let pt = (-1.0e3f64..1.0e3, -1.0e3f64..1.0e3).prop_map(|(x, y)| sos_geom::Point::new(x, y));
    prop_oneof![
        arb_field(),
        (-1.0e3f64..1.0e3, -1.0e3f64..1.0e3)
            .prop_map(|(x, y)| Field::Point(sos_geom::Point::new(x, y))),
        (
            -1.0e3f64..1.0e3,
            -1.0e3f64..1.0e3,
            0.0f64..1.0e3,
            0.0f64..1.0e3
        )
            .prop_map(|(x, y, w, h)| Field::Rect(sos_geom::Rect::new(x, y, x + w, y + h))),
        prop::collection::vec(pt, 3..6).prop_map(|vs| Field::Pgon(sos_geom::Polygon::new(vs))),
    ]
}

/// Record bytes worth checking: encoded records, the same with a few
/// bytes overwritten, cut short or extended, and plain noise.
fn arb_record_bytes() -> impl Strategy<Value = Vec<u8>> {
    let edits = prop::collection::vec((any::<u16>(), any::<u8>()), 0..3);
    prop_oneof![
        prop::collection::vec(arb_any_field(), 0..6).prop_map(|fs| encode_record(&fs)),
        (
            prop::collection::vec(arb_any_field(), 0..6),
            edits,
            any::<u8>(),
            any::<u8>()
        )
            .prop_map(|(fs, edits, cut, extra)| {
                let mut enc = encode_record(&fs);
                for (at, b) in edits {
                    if !enc.is_empty() {
                        let i = at as usize % enc.len();
                        enc[i] = b;
                    }
                }
                match cut % 4 {
                    0 => enc.truncate(enc.len().saturating_sub(1 + extra as usize % 9)),
                    1 => enc.push(extra),
                    _ => {}
                }
                enc
            }),
        prop::collection::vec(any::<u8>(), 0..40),
    ]
}

/// One field's bytes, for comparing fields whose reals may be NaN.
fn field_bytes(f: &Field) -> Vec<u8> {
    encode_record(std::slice::from_ref(f))
}

proptest! {
    /// A record read in place agrees with the decoded record on every
    /// input: the same bytes fail with the same error text, and on the
    /// rest every field reads the same, in place, one by one and
    /// decoded whole. The case count follows
    /// `PROPTEST_CASES` (CI runs it at 20000).
    #[test]
    fn record_view_agrees_with_decode_record(bytes in arb_record_bytes()) {
        use sos_storage::field::RecordView;
        let decoded = decode_record(&bytes);
        let view = RecordView::new(&bytes);
        match (&decoded, &view) {
            (Err(d), Err(v)) => prop_assert_eq!(d.to_string(), v.to_string()),
            (Ok(fields), Ok(view)) => {
                prop_assert_eq!(view.len(), fields.len());
                for (i, f) in fields.iter().enumerate() {
                    let got = view.get(i).expect("field in range").to_field();
                    prop_assert_eq!(field_bytes(&got), field_bytes(f));
                    let int = match f { Field::Int(v) => Some(*v), _ => None };
                    prop_assert_eq!(view.int(i), int);
                    let real = match f { Field::Real(v) => Some(v.to_bits()), _ => None };
                    prop_assert_eq!(view.real(i).map(f64::to_bits), real);
                    let b = match f { Field::Bool(v) => Some(*v), _ => None };
                    prop_assert_eq!(view.bool(i), b);
                }
                prop_assert!(view.get(fields.len()).is_none());
                prop_assert!(view.int(fields.len()).is_none());
                let whole: Vec<Vec<u8>> = view.decode(|f| field_bytes(&f.to_field())).to_vec();
                let want: Vec<Vec<u8>> = fields.iter().map(field_bytes).collect();
                prop_assert_eq!(&whole, &want);
            }
            (d, v) => prop_assert!(false, "decode_record {:?} but RecordView {:?}", d, v),
        }
    }
}

// ---------------------------------------------------------------------
// B-tree vs BTreeMap model
// ---------------------------------------------------------------------

/// Operations the model check replays.
#[derive(Debug, Clone)]
enum Op {
    Insert(i16, u8),
    DeleteExact(i16, u8),
    Lookup(i16),
    Range(i16, i16),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<i16>(), any::<u8>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (any::<i16>(), any::<u8>()).prop_map(|(k, v)| Op::DeleteExact(k, v)),
        any::<i16>().prop_map(Op::Lookup),
        (any::<i16>(), any::<i16>()).prop_map(|(a, b)| Op::Range(a.min(b), a.max(b))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The page-based B-tree behaves like a multimap model under a random
    /// interleaving of inserts, exact deletes, lookups and range scans.
    #[test]
    fn btree_matches_multimap_model(ops in prop::collection::vec(arb_op(), 1..200)) {
        let tree = BTree::create(mem_pool(256)).unwrap();
        let mut model: BTreeMap<i16, Vec<u8>> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    tree.insert(&keys::int_key(k as i64), &[v]).unwrap();
                    model.entry(k).or_default().push(v);
                }
                Op::DeleteExact(k, v) => {
                    let deleted = tree.delete_exact(&keys::int_key(k as i64), &[v]).unwrap();
                    let model_deleted = match model.get_mut(&k) {
                        Some(vs) => match vs.iter().position(|x| *x == v) {
                            Some(i) => {
                                vs.remove(i);
                                if vs.is_empty() {
                                    model.remove(&k);
                                }
                                true
                            }
                            None => false,
                        },
                        None => false,
                    };
                    prop_assert_eq!(deleted, model_deleted);
                }
                Op::Lookup(k) => {
                    let mut got: Vec<u8> = tree
                        .lookup(&keys::int_key(k as i64))
                        .unwrap()
                        .into_iter()
                        .map(|r| r[0])
                        .collect();
                    got.sort_unstable();
                    let mut want = model.get(&k).cloned().unwrap_or_default();
                    want.sort_unstable();
                    prop_assert_eq!(got, want);
                }
                Op::Range(lo, hi) => {
                    let got = tree
                        .range(&keys::int_key(lo as i64), &keys::int_key(hi as i64))
                        .unwrap()
                        .count();
                    let want: usize = model.range(lo..=hi).map(|(_, vs)| vs.len()).sum();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(tree.len(), model.values().map(Vec::len).sum::<usize>());
        }
        // Final full scan is sorted and complete.
        let keys_scanned: Vec<Vec<u8>> = tree.scan().unwrap().map(|r| r.unwrap().0).collect();
        prop_assert!(keys_scanned.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(keys_scanned.len(), tree.len());
    }
}

// ---------------------------------------------------------------------
// Heap file vs vector model
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Insert/delete/update on the heap file match a vector model; tuple
    /// ids stay stable across unrelated operations.
    #[test]
    fn heap_matches_vector_model(
        records in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..600), 1..60),
        deletions in prop::collection::vec(any::<prop::sample::Index>(), 0..20),
    ) {
        let heap = HeapFile::create(mem_pool(64)).unwrap();
        let mut live: Vec<(sos_storage::TupleId, Vec<u8>)> = Vec::new();
        for r in &records {
            let tid = heap.insert(r).unwrap();
            live.push((tid, r.clone()));
        }
        for idx in deletions {
            if live.is_empty() {
                break;
            }
            let i = idx.index(live.len());
            let (tid, _) = live.remove(i);
            heap.delete(tid).unwrap();
        }
        // Every surviving record is retrievable at its original tid.
        for (tid, r) in &live {
            prop_assert_eq!(&heap.get(*tid).unwrap(), r);
        }
        // The scan sees exactly the survivors.
        let mut scanned: Vec<Vec<u8>> = heap.scan().map(|x| x.unwrap().1).collect();
        let mut expected: Vec<Vec<u8>> = live.iter().map(|(_, r)| r.clone()).collect();
        scanned.sort();
        expected.sort();
        prop_assert_eq!(scanned, expected);
    }
}

// ---------------------------------------------------------------------
// Interleaved heap scans over a small pool
// ---------------------------------------------------------------------

/// One step of an interleaving of heap scans and inserts.
#[derive(Debug, Clone)]
enum ScanStep {
    /// Insert a record of this many bytes.
    Insert(usize),
    /// Open a scan and keep it live.
    Open,
    /// Pull up to this many records from one live scan.
    Pull(prop::sample::Index, usize),
    /// Drop one live scan wherever it stands.
    Drop(prop::sample::Index),
    /// Scan the whole file in one go.
    Full,
}

fn arb_scan_step() -> impl Strategy<Value = ScanStep> {
    prop_oneof![
        (1usize..900).prop_map(ScanStep::Insert),
        Just(ScanStep::Open),
        (any::<prop::sample::Index>(), 1usize..40).prop_map(|(i, n)| ScanStep::Pull(i, n)),
        any::<prop::sample::Index>().prop_map(ScanStep::Drop),
        Just(ScanStep::Full),
    ]
}

/// A scan in progress: the records that existed when it was opened,
/// and the tuple ids it has returned so far.
struct LiveScan<'a> {
    scan: HeapScan<'a>,
    at_open: Vec<TupleId>,
    seen: Vec<TupleId>,
}

/// Whether `seen` holds every tuple id of `expected` and no id twice.
fn exactly_once(seen: &[TupleId], expected: &[TupleId]) -> bool {
    let unique: BTreeSet<TupleId> = seen.iter().copied().collect();
    unique.len() == seen.len() && expected.iter().all(|t| unique.contains(t))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Full, partial and dropped heap scans interleaved with inserts over
    /// a 4–8 frame pool: every page request is a hit or a miss, no scan
    /// leaves a page pinned, and a scan that runs to its end returns
    /// each record that existed when it opened exactly once (records
    /// inserted while it runs it may or may not see, but never twice).
    #[test]
    fn interleaved_heap_scans_keep_the_pool_accounted(
        frames in 4usize..9,
        initial in prop::collection::vec(1usize..900, 0..120),
        steps in prop::collection::vec(arb_scan_step(), 1..120),
    ) {
        let pool = BufferPool::new(Arc::new(MemDisk::new()), frames).shared();
        let heap = HeapFile::create(Arc::clone(&pool)).unwrap();
        let mut model: BTreeMap<TupleId, Vec<u8>> = BTreeMap::new();
        // Record `i` starts with `i`, so no two records are equal.
        let insert = |model: &mut BTreeMap<TupleId, Vec<u8>>, len: usize| {
            let mut rec = format!("{:06}", model.len()).into_bytes();
            rec.resize(len.max(6), b'p');
            model.insert(heap.insert(&rec).unwrap(), rec);
        };
        for len in initial {
            insert(&mut model, len);
        }
        let mut live: Vec<LiveScan> = Vec::new();
        for step in steps {
            match step {
                ScanStep::Insert(len) => insert(&mut model, len),
                ScanStep::Open => live.push(LiveScan {
                    scan: heap.scan(),
                    at_open: model.keys().copied().collect(),
                    seen: Vec::new(),
                }),
                ScanStep::Pull(i, n) if !live.is_empty() => {
                    let i = i.index(live.len());
                    let s = &mut live[i];
                    let before = s.seen.len();
                    for r in s.scan.by_ref().take(n) {
                        let (tid, rec) = r.unwrap();
                        prop_assert_eq!(model.get(&tid), Some(&rec));
                        s.seen.push(tid);
                    }
                    if s.seen.len() - before < n {
                        let s = live.remove(i);
                        prop_assert!(exactly_once(&s.seen, &s.at_open));
                    }
                }
                ScanStep::Drop(i) if !live.is_empty() => {
                    drop(live.remove(i.index(live.len())));
                }
                ScanStep::Pull(..) | ScanStep::Drop(_) => {}
                ScanStep::Full => {
                    let mut tids = Vec::new();
                    for r in heap.scan() {
                        let (tid, rec) = r.unwrap();
                        prop_assert_eq!(model.get(&tid), Some(&rec));
                        tids.push(tid);
                    }
                    prop_assert_eq!(tids.len(), model.len());
                    prop_assert!(exactly_once(&tids, &model.keys().copied().collect::<Vec<_>>()));
                }
            }
            // A scan holds no pin between two pulls, so no page is pinned
            // between steps, whether scans are live, finished or dropped.
            prop_assert_eq!(pool.pinned_frames(), 0);
            let s = pool.stats();
            prop_assert_eq!(s.logical_reads, s.cache_hits + s.physical_reads);
        }
        drop(live);
        prop_assert_eq!(pool.pinned_frames(), 0);
    }
}

// ---------------------------------------------------------------------
// LSD-tree vs linear scan
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Point and overlap searches over random rectangles agree with a
    /// linear filter.
    #[test]
    fn lsdtree_matches_linear_scan(
        rects in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0, 0.1f64..20.0, 0.1f64..20.0), 1..120),
        probes in prop::collection::vec((0.0f64..120.0, 0.0f64..120.0), 1..12),
    ) {
        use sos_geom::{Point, Rect};
        let tree = sos_storage::lsdtree::LsdTree::create(mem_pool(256)).unwrap();
        let rs: Vec<Rect> = rects
            .iter()
            .map(|(x, y, w, h)| Rect::new(*x, *y, x + w, y + h))
            .collect();
        for (i, r) in rs.iter().enumerate() {
            tree.insert(*r, &(i as u32).to_le_bytes()).unwrap();
        }
        for (px, py) in probes {
            let p = Point::new(px, py);
            let got = tree.point_search(p).unwrap().len();
            let want = rs.iter().filter(|r| r.contains_point(&p)).count();
            prop_assert_eq!(got, want);
            let q = Rect::new(px, py, px + 5.0, py + 5.0);
            let got = tree.overlap_search(q).unwrap().len();
            let want = rs.iter().filter(|r| r.intersects(&q)).count();
            prop_assert_eq!(got, want);
        }
    }
}
