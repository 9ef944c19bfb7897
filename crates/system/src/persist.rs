//! The catalog snapshot a durable database logs (an engineering
//! extension; see DESIGN.md).
//!
//! Every durable commit carries, as its WAL meta record, the catalog
//! (named types, objects, catalog relations) plus the persistent image
//! of every object value ([`sos_exec::stored::StoredValue`]); recovery
//! reinstalls the last committed one over the recovered pages, each
//! structure attaching to its pages without allocating. The commit is
//! made by the one statement bracket, `Database::write_statement` in
//! this crate, which also puts the catalog and the touched object back
//! when a statement fails. Function
//! values (views) have no persistent image: a view comes back with its
//! type and no value, and reading it names the defining update to
//! re-run.
//!
//! Format 2 dropped partitioned storage: a format-1 snapshot opens
//! unchanged unless it holds a partitioned object, which is refused
//! with [`SystemError::PartitionedObject`].

use crate::{Database, SystemError};
use serde::Json;
use sos_catalog::Catalog;
use sos_core::Symbol;
use sos_exec::stored::{from_stored, to_stored, StoredValue};

/// The snapshot format this version writes and the newest it reads.
const FORMAT: u64 = 2;

/// The serialized catalog and object images.
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

impl Database {
    /// Serialize the current catalog + object values — the payload a
    /// durable commit logs as its meta record. Function-valued objects
    /// (views) have no persistent image and are skipped.
    pub(crate) fn snapshot_bytes(&self) -> Result<Vec<u8>, SystemError> {
        let mut store = Vec::new();
        for (name, value) in &self.store {
            if let Some(sv) = to_stored(value)? {
                store.push((name.clone(), sv));
            }
        }
        store.sort_by(|a, b| a.0.cmp(&b.0));
        let snap = Snapshot {
            format: FORMAT,
            catalog: self.catalog.clone(),
            store,
        };
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
            let entry = self
                .catalog
                .object(&name)
                .ok_or_else(|| SystemError::UnknownObject(name.clone()))?;
            let value = from_stored(
                &self.engine,
                &self.sig,
                &self.catalog,
                &name,
                &entry.ty,
                stored,
            )?;
            self.store.insert(name, value);
        }
        Ok(())
    }
}

fn persist_err(e: impl std::fmt::Display) -> SystemError {
    SystemError::Persist(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_exec::Value;

    /// A format-2 meta record as the previous version wrote it, before
    /// the LSD-tree directory was serialized as itself: a B-tree, an
    /// `srel`, a `tidrel`, a catalog and a 100-entry LSD-tree whose
    /// directory has three inner nodes and four leaves.
    const FORMAT_2_META: &str = r#"{"format":2,"catalog":{"types":{"state":{"Cons":["tuple",[{"List":[{"Pair":[{"Expr":{"Const":{"Ident":"sname"}}},{"Type":{"Cons":["string",[]]}}]},{"Pair":[{"Expr":{"Const":{"Ident":"region"}}},{"Type":{"Cons":["pgon",[]]}}]}]}]]}},"objects":{"rep":{"name":"rep","ty":{"Cons":["catalog",[{"List":[{"Type":{"Cons":["ident",[]]}},{"Type":{"Cons":["ident",[]]}}]}]]},"level":"Hybrid"},"bt":{"name":"bt","ty":{"Cons":["btree",[{"Type":{"Cons":["tuple",[{"List":[{"Pair":[{"Expr":{"Const":{"Ident":"k"}}},{"Type":{"Cons":["int",[]]}}]}]}]]}},{"Expr":{"Const":{"Ident":"k"}}},{"Type":{"Cons":["int",[]]}}]]},"level":"Representation"},"sr":{"name":"sr","ty":{"Cons":["srel",[{"Type":{"Cons":["tuple",[{"List":[{"Pair":[{"Expr":{"Const":{"Ident":"k"}}},{"Type":{"Cons":["int",[]]}}]}]}]]}}]]},"level":"Representation"},"tr":{"name":"tr","ty":{"Cons":["tidrel",[{"Type":{"Cons":["tuple",[{"List":[{"Pair":[{"Expr":{"Const":{"Ident":"k"}}},{"Type":{"Cons":["int",[]]}}]}]}]]}}]]},"level":"Representation"},"states_rep":{"name":"states_rep","ty":{"Cons":["lsdtree",[{"Type":{"Cons":["tuple",[{"List":[{"Pair":[{"Expr":{"Const":{"Ident":"sname"}}},{"Type":{"Cons":["string",[]]}}]},{"Pair":[{"Expr":{"Const":{"Ident":"region"}}},{"Type":{"Cons":["pgon",[]]}}]}]}]]}},{"Expr":{"Lambda":{"params":[["s",{"Cons":["tuple",[{"List":[{"Pair":[{"Expr":{"Const":{"Ident":"sname"}}},{"Type":{"Cons":["string",[]]}}]},{"Pair":[{"Expr":{"Const":{"Ident":"region"}}},{"Type":{"Cons":["pgon",[]]}}]}]}]]}]],"body":{"Seq":[{"Word":{"name":"bbox","brackets":null,"parens":[{"Seq":[{"Word":{"name":"s","brackets":null,"parens":null}},{"Word":{"name":"region","brackets":null,"parens":null}}]}]}}]}}}}]]},"level":"Representation"}},"relations":{"rep":{"columns":2,"rows":[]}}},"store":[["bt",{"BTree":{"root":0,"len":1}}],["rep",{"CatalogToken":"rep"}],["sr",{"SRel":[2]}],["states_rep",{"LsdTree":{"root":{"Inner":{"dim":0,"pos":550.0,"cover":{"min_x":2.0,"min_y":2.0,"max_x":998.0,"max_y":998.0},"left":{"Inner":{"dim":1,"pos":550.0,"cover":{"min_x":2.0,"min_y":2.0,"max_x":498.0,"max_y":998.0},"left":{"Leaf":{"page":4,"cover":{"min_x":2.0,"min_y":2.0,"max_x":498.0,"max_y":498.0},"count":25}},"right":{"Leaf":{"page":5,"cover":{"min_x":2.0,"min_y":502.0,"max_x":498.0,"max_y":998.0},"count":25}}}},"right":{"Inner":{"dim":1,"pos":550.0,"cover":{"min_x":502.0,"min_y":2.0,"max_x":998.0,"max_y":998.0},"left":{"Leaf":{"page":6,"cover":{"min_x":502.0,"min_y":2.0,"max_x":998.0,"max_y":498.0},"count":25}},"right":{"Leaf":{"page":7,"cover":{"min_x":502.0,"min_y":502.0,"max_x":998.0,"max_y":998.0},"count":25}}}}}},"len":100,"directory_nodes":7}}],["tr",{"TidRel":[3]}]]}"#;

    #[test]
    fn a_format_2_meta_record_installs_and_writes_the_same_images() {
        let mut db = Database::builder().build();
        db.install_snapshot(FORMAT_2_META.as_bytes()).unwrap();
        assert_eq!(db.query("states_rep count").unwrap(), Value::Int(100));
        assert_eq!(db.query("bt count").unwrap(), Value::Int(1));
        let Some(Value::LsdTree(h)) = db.object_value("states_rep") else {
            panic!("states_rep is not an LSD-tree");
        };
        assert_eq!(h.tree.directory_size(), 7);
        // The catalog's maps serialize in hash order; the store is
        // sorted, so its images must come back byte for byte.
        let written = String::from_utf8(db.snapshot_bytes().unwrap()).unwrap();
        let store = |s: &str| s[s.find(r#""store":"#).unwrap()..].to_string();
        assert!(written.starts_with(r#"{"format":2,"#), "{written}");
        assert_eq!(store(&written), store(FORMAT_2_META));
    }
}
