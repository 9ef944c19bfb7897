//! A graph data model as a loadable specification — the paper's opening
//! motivation ("it should be possible to define ... graph models" and
//! the GraphDB work of [ErG91]) demonstrated end to end:
//!
//! 1. a new kind `GRAPH` and constructor `graph(node_type, edge_type)`,
//! 2. polymorphic operators (`nodes`, `edges`, `succ`, `add_node`,
//!    `add_edge`) specified over it, with the update operators marked as
//!    update functions,
//! 3. Rust implementations registered for the operators,
//! 4. programs in the ordinary five-statement language using the model.
//!
//! Graph values are represented as a pair of relations (nodes, edges);
//! nodes carry an integer id as their first attribute, edges a (from,
//! to) pair — the convention the operator implementations document.
//!
//! ```sh
//! cargo run --example graph_model
//! ```

use sos_exec::{render, ExecError, Value};
use sos_system::Database;

/// The graph model specification (what a model designer writes).
const GRAPH_SPEC: &str = r##"
kinds GRAPH

-- graph(node_tuple, edge_tuple): both components are tuple types.
model cons graph : TUPLE x TUPLE -> GRAPH

-- projections to the component relations
model op nodes : forall g: graph(n, e) in GRAPH . g -> rel(n) syntax "_ #"
model op edges : forall g: graph(n, e) in GRAPH . g -> rel(e) syntax "_ #"

-- successors of a node id
model op succ : forall g: graph(n, e) in GRAPH . g x int -> rel(n) syntax "_ #[ _ ]"

-- update functions (Section 6 style: first argument type = result type)
model op add_node : forall g: graph(n, e) in GRAPH . g x n -> g update
model op add_edge : forall g: graph(n, e) in GRAPH . g x e -> g update
"##;

/// Pull the (nodes, edges) pair out of a graph value; an undefined
/// object reads as the empty graph.
fn graph_parts(v: &Value) -> Result<(Vec<Value>, Vec<Value>), ExecError> {
    match v {
        Value::Pair(parts) => match parts.as_slice() {
            [Value::Rel(ns), Value::Rel(es)] => Ok((ns.clone(), es.clone())),
            _ => Err(ExecError::Other("malformed graph value".into())),
        },
        Value::Undefined => Ok((Vec::new(), Vec::new())),
        other => Err(ExecError::Other(format!(
            "expected a graph value, got {}",
            other.kind_name()
        ))),
    }
}

fn graph_value(nodes: Vec<Value>, edges: Vec<Value>) -> Value {
    Value::Pair(vec![Value::Rel(nodes), Value::Rel(edges)])
}

fn register_graph_ops(db: &mut Database) {
    db.add_op_impl("nodes", |_, _, args| {
        Ok(Value::Rel(graph_parts(&args[0])?.0))
    })
    .expect("nodes is declared");
    db.add_op_impl("edges", |_, _, args| {
        Ok(Value::Rel(graph_parts(&args[0])?.1))
    })
    .expect("edges is declared");
    db.add_op_impl("add_node", |_, _, args| {
        let (mut ns, es) = graph_parts(&args[0])?;
        ns.push(args[1].clone());
        Ok(graph_value(ns, es))
    })
    .expect("add_node is declared");
    db.add_op_impl("add_edge", |_, _, args| {
        let (ns, mut es) = graph_parts(&args[0])?;
        es.push(args[1].clone());
        Ok(graph_value(ns, es))
    })
    .expect("add_edge is declared");
    db.add_op_impl("succ", |_, _, args| {
        let (ns, es) = graph_parts(&args[0])?;
        let from = args[1].as_int("succ")?;
        // Convention: node id is the first attribute; an edge is
        // (from, to, ...).
        let mut succ_ids = Vec::new();
        for e in &es {
            let fields = e.as_tuple("succ")?;
            if fields[0].as_int("succ")? == from {
                succ_ids.push(fields[1].as_int("succ")?);
            }
        }
        Ok(Value::Rel(
            ns.into_iter()
                .filter(|n| {
                    n.as_tuple("succ")
                        .ok()
                        .and_then(|fs| fs[0].as_int("succ").ok())
                        .map(|id| succ_ids.contains(&id))
                        .unwrap_or(false)
                })
                .collect(),
        ))
    })
    .expect("succ is declared");
}

fn main() {
    let mut db = Database::builder().build();
    db.load_spec(GRAPH_SPEC).expect("graph model spec loads");
    register_graph_ops(&mut db);

    // A program in the new model: a small road network.
    db.run(
        r#"
        type city_node = tuple(<(id, int), (name, string), (pop, int)>);
        type road_edge = tuple(<(from, int), (to, int), (km, int)>);
        type road_graph = graph(city_node, road_edge);
        create roads : road_graph;

        update roads := add_node(roads, mktuple[(id, 1), (name, "Hagen"),  (pop, 190000)]);
        update roads := add_node(roads, mktuple[(id, 2), (name, "Essen"),  (pop, 580000)]);
        update roads := add_node(roads, mktuple[(id, 3), (name, "Berlin"), (pop, 3500000)]);
        update roads := add_edge(roads, mktuple[(from, 1), (to, 2), (km, 40)]);
        update roads := add_edge(roads, mktuple[(from, 1), (to, 3), (km, 490)]);
        update roads := add_edge(roads, mktuple[(from, 2), (to, 3), (km, 520)]);
    "#,
    )
    .expect("graph program runs");

    // The graph operators compose with the built-in relational algebra:
    // "big cities reachable from Hagen in one hop".
    let v = db
        .query("roads succ[1] select[pop > 500000]")
        .expect("graph query runs");
    println!("big cities one hop from Hagen:\n{}\n", render(&v));

    let v = db
        .query("roads edges select[km < 100]")
        .expect("edge query");
    println!("short roads:\n{}\n", render(&v));

    // Type errors in the new model are caught like any other.
    let err = db.query("roads succ[1] select[km > 3]").unwrap_err();
    println!("as expected, `km` is not a city attribute: {err}");

    let err = db.run("create bad : graph(int, road_edge);").unwrap_err();
    println!("as expected, graph needs tuple types: {err}");
}
