//! The database catalog, itself modeled as an algebraic structure
//! (Section 6 of the paper).
//!
//! Because both the data model and the representation model vary, the
//! catalog cannot be hard-wired: it is a collection of
//!
//! * **named types** — introduced by `type <name> = <type expression>`;
//!   named types are *aliases*, expanded structurally before checking,
//! * **named objects** — introduced by `create <name> : <type>`, each
//!   tagged with the level (model / representation / hybrid) derived from
//!   its type's constructors, and
//! * **catalog relations** — objects of the special `catalog(...)` type
//!   constructor, n-ary relations over identifiers and data values whose
//!   membership tests can be used like PROLOG predicates inside
//!   optimization rules. The `rep` catalog connecting each model object
//!   to its representation objects is the canonical instance.

use sos_core::check::ObjectEnv;
use sos_core::spec::Level;
use sos_core::{Const, DataType, Signature, Symbol, TypeArg};
use std::collections::HashMap;

/// Errors raised by catalog operations.
#[derive(Debug, Clone, PartialEq)]
pub enum CatalogError {
    DuplicateType(Symbol),
    DuplicateObject(Symbol),
    UnknownObject(Symbol),
    NotACatalog(Symbol),
    ArityMismatch {
        name: Symbol,
        expected: usize,
        got: usize,
    },
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::DuplicateType(n) => write!(f, "type `{n}` already defined"),
            CatalogError::DuplicateObject(n) => write!(f, "object `{n}` already exists"),
            CatalogError::UnknownObject(n) => write!(f, "no object named `{n}`"),
            CatalogError::NotACatalog(n) => write!(f, "object `{n}` is not a catalog"),
            CatalogError::ArityMismatch {
                name,
                expected,
                got,
            } => write!(f, "catalog `{name}` has arity {expected}, tuple has {got}"),
        }
    }
}

impl std::error::Error for CatalogError {}

/// Metadata for one named object.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ObjectEntry {
    pub name: Symbol,
    pub ty: DataType,
    pub level: Level,
}

/// One catalog relation: rows of constants (identifiers, ints, ...).
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CatalogRelation {
    pub columns: usize,
    pub rows: Vec<Vec<Const>>,
}

impl CatalogRelation {
    /// Insert a row (idempotent: an identical row is not duplicated —
    /// the `rep` catalog is a set of links).
    pub fn insert(&mut self, row: Vec<Const>) {
        if !self.rows.contains(&row) {
            self.rows.push(row);
        }
    }

    /// Remove all rows matching a partial pattern (`None` = wildcard).
    pub fn delete(&mut self, pattern: &[Option<Const>]) -> usize {
        let before = self.rows.len();
        self.rows.retain(|row| !matches_row(row, pattern));
        before - self.rows.len()
    }

    /// All rows matching a partial pattern.
    pub fn lookup(&self, pattern: &[Option<Const>]) -> Vec<&Vec<Const>> {
        self.rows
            .iter()
            .filter(|r| matches_row(r, pattern))
            .collect()
    }
}

fn matches_row(row: &[Const], pattern: &[Option<Const>]) -> bool {
    row.len() == pattern.len()
        && row
            .iter()
            .zip(pattern)
            .all(|(c, p)| p.as_ref().map(|p| p == c).unwrap_or(true))
}

/// The catalog: named types, named objects, catalog relations.
///
/// Deserialization finds fields by name and ignores unknown keys, so a
/// WAL meta record that still carries an older `stats` map opens, and
/// the map is dropped from the next snapshot logged. A format-1
/// snapshot's `partitions` map is not read here: `sos-system` refuses a
/// snapshot whose map is non-empty before it builds the catalog.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct Catalog {
    types: HashMap<Symbol, DataType>,
    objects: HashMap<Symbol, ObjectEntry>,
    relations: HashMap<Symbol, CatalogRelation>,
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    // ---- named types ----

    /// Define a named type (after expansion of previously named types).
    pub fn define_type(&mut self, name: Symbol, ty: DataType) -> Result<(), CatalogError> {
        if self.types.contains_key(&name) {
            return Err(CatalogError::DuplicateType(name));
        }
        let expanded = self.expand_type(&ty);
        self.types.insert(name, expanded);
        Ok(())
    }

    pub fn named_type(&self, name: &Symbol) -> Option<&DataType> {
        self.types.get(name)
    }

    /// Structurally replace named types by their definitions. A name used
    /// as a 0-ary constructor (`rel(city)`) is an alias reference.
    pub fn expand_type(&self, ty: &DataType) -> DataType {
        match ty {
            DataType::Cons(name, args) if args.is_empty() => match self.types.get(name) {
                Some(t) => t.clone(),
                None => ty.clone(),
            },
            DataType::Cons(name, args) => DataType::Cons(
                name.clone(),
                args.iter().map(|a| self.expand_arg(a)).collect(),
            ),
            DataType::Fun(params, res) => DataType::Fun(
                params.iter().map(|p| self.expand_type(p)).collect(),
                Box::new(self.expand_type(res)),
            ),
        }
    }

    fn expand_arg(&self, arg: &TypeArg) -> TypeArg {
        match arg {
            TypeArg::Type(t) => TypeArg::Type(self.expand_type(t)),
            TypeArg::List(items) => {
                TypeArg::List(items.iter().map(|a| self.expand_arg(a)).collect())
            }
            TypeArg::Pair(items) => {
                TypeArg::Pair(items.iter().map(|a| self.expand_arg(a)).collect())
            }
            TypeArg::Expr(e) => TypeArg::Expr(e.clone()),
        }
    }

    // ---- named objects ----

    /// Create an object of an (expanded, checked) type. The level is
    /// derived from the signature's constructor levels.
    pub fn create_object(
        &mut self,
        sig: &Signature,
        name: Symbol,
        ty: DataType,
    ) -> Result<&ObjectEntry, CatalogError> {
        if self.objects.contains_key(&name) {
            return Err(CatalogError::DuplicateObject(name));
        }
        let level = level_of(sig, &ty);
        // Objects of catalog type get an empty catalog relation.
        if let DataType::Cons(c, args) = &ty {
            if c.as_str() == "catalog" {
                let cols = match args.first() {
                    Some(TypeArg::List(items)) => items.len(),
                    _ => args.len(),
                };
                self.relations.insert(
                    name.clone(),
                    CatalogRelation {
                        columns: cols,
                        rows: Vec::new(),
                    },
                );
            }
        }
        let entry = ObjectEntry {
            name: name.clone(),
            ty,
            level,
        };
        self.objects.insert(name.clone(), entry);
        Ok(&self.objects[&name])
    }

    pub fn object(&self, name: &Symbol) -> Option<&ObjectEntry> {
        self.objects.get(name)
    }

    pub fn objects(&self) -> impl Iterator<Item = &ObjectEntry> {
        self.objects.values()
    }

    /// Delete an object (the `delete <identifier>` statement).
    pub fn delete_object(&mut self, name: &Symbol) -> Result<ObjectEntry, CatalogError> {
        self.relations.remove(name);
        self.objects
            .remove(name)
            .ok_or_else(|| CatalogError::UnknownObject(name.clone()))
    }

    // ---- catalog relations ----

    pub fn relation(&self, name: &Symbol) -> Option<&CatalogRelation> {
        self.relations.get(name)
    }

    pub fn relation_mut(&mut self, name: &Symbol) -> Result<&mut CatalogRelation, CatalogError> {
        self.relations
            .get_mut(name)
            .ok_or_else(|| CatalogError::NotACatalog(name.clone()))
    }

    /// Insert a row into a catalog relation (the special `insert`
    /// operation defined for catalog types in Section 6).
    pub fn catalog_insert(&mut self, name: &Symbol, row: Vec<Const>) -> Result<(), CatalogError> {
        let rel = self.relation_mut(name)?;
        if rel.columns != row.len() {
            return Err(CatalogError::ArityMismatch {
                name: name.clone(),
                expected: rel.columns,
                got: row.len(),
            });
        }
        rel.insert(row);
        Ok(())
    }

    /// The optimizer's `rep(model_object, rep_object)` predicate: all
    /// representation objects linked to `model` in catalog `name`.
    pub fn linked(&self, name: &Symbol, model: &Symbol) -> Vec<Symbol> {
        let Some(rel) = self.relations.get(name) else {
            return Vec::new();
        };
        rel.rows
            .iter()
            .filter_map(|row| match row.as_slice() {
                [Const::Ident(m), Const::Ident(r)] if m == model => Some(r.clone()),
                _ => None,
            })
            .collect()
    }
}

impl ObjectEnv for Catalog {
    fn object_type(&self, name: &Symbol) -> Option<DataType> {
        self.objects.get(name).map(|e| e.ty.clone())
    }
}

/// The level of a type: its outermost constructor's level; function types
/// take the level of their result.
pub fn level_of(sig: &Signature, ty: &DataType) -> Level {
    match ty {
        DataType::Cons(name, _) => sig
            .constructor(name)
            .map(|d| d.level)
            .unwrap_or(Level::Hybrid),
        DataType::Fun(_, res) => level_of(sig, res),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_core::pattern::SortPattern;
    use sos_core::spec::TypeConstructorDef;
    use sos_core::sym;

    fn sig() -> Signature {
        let mut s = Signature::new();
        s.add_kind("DATA");
        s.add_kind("REL");
        s.add_kind("BTREE");
        s.add_constructor(TypeConstructorDef::atom("int", "DATA", Level::Hybrid));
        s.add_constructor(TypeConstructorDef {
            name: sym("rel"),
            quantifiers: vec![],
            args: vec![SortPattern::kind("TUPLE")],
            kind: sym("REL"),
            level: Level::Model,
        });
        s.add_constructor(TypeConstructorDef::atom(
            "btree0",
            "BTREE",
            Level::Representation,
        ));
        s
    }

    fn city() -> DataType {
        DataType::tuple(vec![(sym("pop"), DataType::atom("int"))])
    }

    #[test]
    fn named_types_expand_transitively() {
        let mut cat = Catalog::new();
        cat.define_type(sym("city"), city()).unwrap();
        cat.define_type(sym("city_rel"), DataType::rel(DataType::atom("city")))
            .unwrap();
        let t = cat.named_type(&sym("city_rel")).unwrap();
        assert_eq!(*t, DataType::rel(city()));
        assert_eq!(
            cat.expand_type(&DataType::atom("int")),
            DataType::atom("int")
        );
    }

    #[test]
    fn duplicate_definitions_rejected() {
        let mut cat = Catalog::new();
        cat.define_type(sym("t"), city()).unwrap();
        assert!(matches!(
            cat.define_type(sym("t"), city()),
            Err(CatalogError::DuplicateType(_))
        ));
        let s = sig();
        cat.create_object(&s, sym("o"), city()).unwrap();
        assert!(matches!(
            cat.create_object(&s, sym("o"), city()),
            Err(CatalogError::DuplicateObject(_))
        ));
    }

    #[test]
    fn levels_derived_from_constructors() {
        let s = sig();
        assert_eq!(level_of(&s, &DataType::rel(city())), Level::Model);
        assert_eq!(
            level_of(&s, &DataType::atom("btree0")),
            Level::Representation
        );
        assert_eq!(level_of(&s, &DataType::atom("int")), Level::Hybrid);
        let view = DataType::Fun(vec![], Box::new(DataType::rel(city())));
        assert_eq!(level_of(&s, &view), Level::Model);
    }

    #[test]
    fn catalog_relation_insert_lookup_delete() {
        let mut cat = Catalog::new();
        let s = sig();
        let cat_ty = DataType::Cons(
            sym("catalog"),
            vec![TypeArg::List(vec![
                TypeArg::Type(DataType::atom("ident")),
                TypeArg::Type(DataType::atom("ident")),
            ])],
        );
        cat.create_object(&s, sym("rep"), cat_ty).unwrap();
        cat.catalog_insert(
            &sym("rep"),
            vec![Const::Ident(sym("cities")), Const::Ident(sym("cities_rep"))],
        )
        .unwrap();
        cat.catalog_insert(
            &sym("rep"),
            vec![Const::Ident(sym("cities")), Const::Ident(sym("cities_rep"))],
        )
        .unwrap();
        assert_eq!(cat.relation(&sym("rep")).unwrap().rows.len(), 1);
        assert_eq!(
            cat.linked(&sym("rep"), &sym("cities")),
            vec![sym("cities_rep")]
        );
        assert!(cat.linked(&sym("rep"), &sym("states")).is_empty());
        assert!(matches!(
            cat.catalog_insert(&sym("rep"), vec![Const::Int(1)]),
            Err(CatalogError::ArityMismatch { .. })
        ));
        let n = cat
            .relation_mut(&sym("rep"))
            .unwrap()
            .delete(&[Some(Const::Ident(sym("cities"))), None]);
        assert_eq!(n, 1);
    }

    #[test]
    fn delete_object_removes_relation_too() {
        let mut cat = Catalog::new();
        let s = sig();
        let cat_ty = DataType::Cons(
            sym("catalog"),
            vec![TypeArg::List(vec![TypeArg::Type(DataType::atom("ident"))])],
        );
        cat.create_object(&s, sym("c"), cat_ty).unwrap();
        assert!(cat.relation(&sym("c")).is_some());
        cat.delete_object(&sym("c")).unwrap();
        assert!(cat.relation(&sym("c")).is_none());
        assert!(matches!(
            cat.delete_object(&sym("c")),
            Err(CatalogError::UnknownObject(_))
        ));
    }

    #[test]
    fn object_env_resolves_types() {
        let mut cat = Catalog::new();
        let s = sig();
        cat.create_object(&s, sym("cities"), DataType::rel(city()))
            .unwrap();
        assert_eq!(cat.object_type(&sym("cities")), Some(DataType::rel(city())));
        assert_eq!(cat.object_type(&sym("missing")), None);
    }

    #[test]
    fn delete_object_forgets_the_object() {
        let mut cat = Catalog::new();
        let s = sig();
        cat.create_object(&s, sym("cities"), DataType::rel(city()))
            .unwrap();
        cat.delete_object(&sym("cities")).unwrap();
        assert!(cat.object(&sym("cities")).is_none());
        assert_eq!(cat.object_type(&sym("cities")), None);
    }

    #[test]
    fn snapshots_with_a_populated_stats_field_load_and_drop_it() {
        // A catalog as versions with `analyze` wrote it: one analyzed
        // object with row and page counts, two histograms and a bounding
        // box.
        let json = r#"{"types":{},"objects":{"cities":{"name":"cities","ty":{"Cons":["rel",[{"Type":{"Cons":["tuple",[{"List":[{"Pair":[{"Expr":{"Const":{"Ident":"pop"}}},{"Type":{"Cons":["int",[]]}}]}]}]]}}]]},"level":"Model"}},"relations":{},"stats":{"cities":{"rows":100,"pages":4,"key_attr":"pop","key_histogram":{"lo":0.0,"hi":99.0,"buckets":[25,25,25,25]},"rect_histogram":{"lo":1.0,"hi":2.5,"buckets":[1,1]},"bbox":{"x0":0.0,"y0":1.0,"x1":2.0,"y1":3.0}}}}"#;
        let back: Catalog = serde_json::from_str(json).unwrap();
        let mut expected = Catalog::new();
        expected
            .create_object(&sig(), sym("cities"), DataType::rel(city()))
            .unwrap();
        assert_eq!(back.object(&sym("cities")), expected.object(&sym("cities")));
        let saved = serde_json::to_string(&back).unwrap();
        assert!(!saved.contains("stats"), "{saved}");
        assert_eq!(saved, serde_json::to_string(&expected).unwrap());
    }

    #[test]
    fn lookup_with_wildcards() {
        let mut rel = CatalogRelation {
            columns: 2,
            rows: vec![
                vec![Const::Ident(sym("a")), Const::Ident(sym("x"))],
                vec![Const::Ident(sym("a")), Const::Ident(sym("y"))],
                vec![Const::Ident(sym("b")), Const::Ident(sym("z"))],
            ],
        };
        assert_eq!(rel.lookup(&[Some(Const::Ident(sym("a"))), None]).len(), 2);
        assert_eq!(rel.lookup(&[None, None]).len(), 3);
        assert_eq!(rel.delete(&[None, Some(Const::Ident(sym("z")))]), 1);
        assert_eq!(rel.rows.len(), 2);
    }
}
