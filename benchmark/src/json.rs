//! Reading JSON (BENCHMARK.json, a child run's output) through the
//! repository's vendored `serde_json`, as a plain value tree.

pub use serde::Json;

struct Tree(Json);

impl<'de> serde::Deserialize<'de> for Tree {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Tree, D::Error> {
        d.take_json().map(Tree)
    }
}

pub fn parse(text: &str) -> Result<Json, String> {
    serde_json::from_str::<Tree>(text)
        .map(|t| t.0)
        .map_err(|e| e.to_string())
}

pub trait JsonExt {
    fn get(&self, key: &str) -> Option<&Json>;
    fn as_array(&self) -> Option<&[Json]>;
    fn as_str(&self) -> Option<&str>;
    fn as_f64(&self) -> Option<f64>;
}

impl JsonExt for Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::I64(v) => Some(*v as f64),
            Json::U64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }
}
