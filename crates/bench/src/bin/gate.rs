//! Gate — evaluates `gates.json` over what `ci.sh` just wrote (format in
//! [`bench::gate`]). Prints one line per failed pin or row; exits 1 on any.
//!
//! Usage: `cargo run --release -p bench --bin gate -- gates.json`

use std::path::Path;

use bench::gate::Gates;
use telemetry::Flags;

fn main() {
    let mut flags = Flags::from_env();
    let path: String = flags.positional("GATES_JSON", "gates.json".to_string());
    flags.finish();
    let text = std::fs::read_to_string(&path).map_err(|e| e.to_string());
    let gates = text.and_then(|text| Gates::parse(&text)).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(2);
    });
    let failures = gates.evaluate(Path::new(&path).parent().unwrap_or(Path::new("")));
    failures.iter().for_each(|failure| eprintln!("GATE {failure}"));
    if !failures.is_empty() {
        std::process::exit(1);
    }
    println!("gate OK ({path})");
}
