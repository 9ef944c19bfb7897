//! Saving and opening databases (an engineering extension; see
//! DESIGN.md).
//!
//! A database directory holds two artifacts: `pages.db` — the page file
//! all representation structures live in — and `snapshot.json` — the
//! catalog (named types, objects, catalog relations) plus the persistent
//! image of every object value ([`sos_exec::stored::StoredValue`]).
//! Function values (views) have no persistent image; `save` reports
//! their names so callers can re-create them from their defining
//! statements.
//!
//! The same snapshot is the meta record of every durable commit, so the
//! format rules below hold for the WAL too. Format 2 dropped partitioned
//! storage: a format-1 snapshot opens unchanged unless it holds a
//! partitioned object, which is refused with
//! [`SystemError::PartitionedObject`].

use crate::{Database, SystemError};
use serde::Json;
use sos_catalog::Catalog;
use sos_core::Symbol;
use sos_exec::stored::{from_stored, to_stored, StoredValue};
use sos_storage::{BufferPool, FileDisk};
use std::path::Path;
use std::sync::Arc;

/// The snapshot format this version writes and the newest it reads.
const FORMAT: u64 = 2;

/// The serialized sidecar next to the page file.
#[derive(serde::Serialize)]
struct Snapshot {
    format: u64,
    catalog: Catalog,
    store: Vec<(Symbol, StoredValue)>,
}

/// A snapshot as read back: installable, or naming the first object an
/// older version stored partitioned.
enum Opened {
    Snapshot(Box<Snapshot>),
    Partitioned(Symbol),
}

impl<'de> serde::Deserialize<'de> for Opened {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let json = deserializer.take_json()?;
        let obj = serde::expect_obj::<D::Error>(&json, "Snapshot")?;
        // Snapshots before format 2 carry no format field.
        let format = match field(obj, "format") {
            Some(v) => serde::value_of::<u64, D::Error>(v)?,
            None => 1,
        };
        if format > FORMAT {
            return Err(serde::de::Error::custom(format!(
                "snapshot format {format} is newer than this version reads ({FORMAT})"
            )));
        }
        if let Some(name) = partitioned_object(obj) {
            return Ok(Opened::Partitioned(name));
        }
        Ok(Opened::Snapshot(Box::new(Snapshot {
            format,
            catalog: serde::field_of(obj, "catalog", "Snapshot")?,
            store: serde::field_of(obj, "store", "Snapshot")?,
        })))
    }
}

fn field<'j>(obj: &'j [(String, Json)], name: &str) -> Option<&'j Json> {
    obj.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// The first object a format-1 snapshot holds partitioned: a key of the
/// catalog's `partitions` map, or a store entry imaged as `Part`.
fn partitioned_object(obj: &[(String, Json)]) -> Option<Symbol> {
    let catalog = field(obj, "catalog").and_then(|c| match c {
        Json::Obj(c) => field(c, "partitions"),
        _ => None,
    });
    if let Some(Json::Obj(specs)) = catalog {
        if let Some((name, _)) = specs.first() {
            return Some(Symbol::new(name));
        }
    }
    let Some(Json::Arr(store)) = field(obj, "store") else {
        return None;
    };
    store.iter().find_map(|entry| match entry {
        Json::Arr(pair) => match pair.as_slice() {
            [Json::Str(name), Json::Obj(image)] if field(image, "Part").is_some() => {
                Some(Symbol::new(name))
            }
            _ => None,
        },
        _ => None,
    })
}

const PAGES: &str = "pages.db";
const SNAPSHOT: &str = "snapshot.json";

impl Database {
    /// Create a database whose pages live in `dir` (created if absent).
    /// If the directory holds a previous [`Database::save`], its catalog
    /// and objects are restored.
    pub fn open_dir(dir: &Path) -> Result<Database, SystemError> {
        std::fs::create_dir_all(dir).map_err(persist_err)?;
        let disk = FileDisk::open(&dir.join(PAGES)).map_err(SystemError::from)?;
        let pool = BufferPool::new(Arc::new(disk), 4096).shared();
        let mut db = Database::builder().pool(pool).build();
        let snap_path = dir.join(SNAPSHOT);
        if snap_path.exists() {
            let json = std::fs::read_to_string(&snap_path).map_err(persist_err)?;
            db.install_snapshot(json.as_bytes())?;
        }
        Ok(db)
    }

    /// Serialize the current catalog + object values — the payload a
    /// durable commit logs as its meta record, and what `save` writes
    /// next to the page file. Function-valued objects (views) have no
    /// persistent image and are silently skipped here; [`Database::save`]
    /// reports them.
    pub(crate) fn snapshot_bytes(&self) -> Result<Vec<u8>, SystemError> {
        let (snap, _) = self.make_snapshot()?;
        let json = serde_json::to_string(&snap).map_err(persist_err)?;
        Ok(json.into_bytes())
    }

    /// Install a serialized snapshot: replace the catalog and rebuild
    /// every object value from its stored image (representation handles
    /// re-attach to pages already on — or recovered to — the data disk).
    pub(crate) fn install_snapshot(&mut self, bytes: &[u8]) -> Result<(), SystemError> {
        let json = std::str::from_utf8(bytes).map_err(persist_err)?;
        let snap = match serde_json::from_str(json).map_err(persist_err)? {
            Opened::Snapshot(snap) => *snap,
            Opened::Partitioned(name) => return Err(SystemError::PartitionedObject(name)),
        };
        self.catalog = snap.catalog;
        self.store.clear();
        for (name, stored) in snap.store {
            let ty = self
                .catalog
                .object(&name)
                .ok_or_else(|| SystemError::UnknownObject(name.clone()))?
                .ty
                .clone();
            let value = from_stored(&self.engine, &self.sig, &self.catalog, &ty, stored)?;
            self.store.insert(name, value);
        }
        Ok(())
    }

    fn make_snapshot(&self) -> Result<(Snapshot, Vec<Symbol>), SystemError> {
        let mut store = Vec::new();
        let mut skipped = Vec::new();
        for (name, value) in &self.store {
            match to_stored(value)? {
                Some(sv) => store.push((name.clone(), sv)),
                None => skipped.push(name.clone()),
            }
        }
        store.sort_by(|a, b| a.0.cmp(&b.0));
        skipped.sort();
        Ok((
            Snapshot {
                format: FORMAT,
                catalog: self.catalog.clone(),
                store,
            },
            skipped,
        ))
    }

    /// Persist the database into `dir`: flush all pages and write the
    /// catalog + value snapshot. Returns the names of objects whose
    /// values could not be persisted (function-valued views) — their
    /// types survive, their defining `update` must be re-run after
    /// [`Database::open_dir`].
    pub fn save(&self, dir: &Path) -> Result<Vec<Symbol>, SystemError> {
        std::fs::create_dir_all(dir).map_err(persist_err)?;
        self.engine.pool.flush_all().map_err(SystemError::from)?;
        let (snap, skipped) = self.make_snapshot()?;
        let json = serde_json::to_string(&snap).map_err(persist_err)?;
        std::fs::write(dir.join(SNAPSHOT), json).map_err(persist_err)?;
        Ok(skipped)
    }
}

fn persist_err(e: impl std::fmt::Display) -> SystemError {
    SystemError::Persist(e.to_string())
}
