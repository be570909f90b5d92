//! Support for the `repro` binary, which regenerates every table and
//! figure of the paper's evaluation
//! (`cargo run --release -p etpp-bench --bin repro -- all`). Simulator
//! performance is measured elsewhere: `speedcheck` (the CI smoke gate)
//! and the standalone `benchmark/` harness.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use etpp_workloads::Scale;

/// Parses a `--scale` argument (`tiny` | `small` | `paper`).
pub fn parse_scale(s: &str) -> Option<Scale> {
    match s {
        "tiny" => Some(Scale::Tiny),
        "small" => Some(Scale::Small),
        "paper" => Some(Scale::Paper),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(parse_scale("tiny"), Some(Scale::Tiny));
        assert_eq!(parse_scale("small"), Some(Scale::Small));
        assert_eq!(parse_scale("paper"), Some(Scale::Paper));
        assert_eq!(parse_scale("huge"), None);
    }
}
