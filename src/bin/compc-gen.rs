//! `compc-gen` — emit a random composite system as JSON for `compc-check`.
//!
//! ```sh
//! compc-gen [--shape stack|fork|join|general] [--seed N] [--roots N]
//!           [--density 0.4] > system.json
//! ```

use compc::spec::SystemSpec;
use compc::workload::random::{generate, GenParams, Shape};

fn arg<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let shape = match arg::<String>("--shape", "general".into()).as_str() {
        "stack" => Shape::Stack { depth: 3 },
        "fork" => Shape::Fork { branches: 3 },
        "join" => Shape::Join { branches: 3 },
        _ => Shape::General {
            levels: 3,
            scheds_per_level: 2,
        },
    };
    let params = GenParams {
        shape,
        roots: arg("--roots", 4),
        ops_per_tx: (1, 3),
        conflict_density: arg("--density", 0.4),
        sequential_tx_prob: 0.7,
        client_input_prob: arg("--client-orders", 0.0),
        strong_input_prob: arg("--strong-orders", 0.0),
        sound_abstractions: std::env::args().any(|a| a == "--sound"),
        seed: arg("--seed", 1),
    };
    let sys = generate(&params);
    let spec = SystemSpec::from_system(&sys);
    println!("{}", spec.to_pretty());
}
