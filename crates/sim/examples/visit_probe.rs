//! Dev probe: per-source visit attribution for one (workload, mode).
//!
//! ```text
//! cargo run --release -p etpp-sim --example visit_probe -- HJ-8 manual small
//! ```

use etpp_sim::{run, PrefetchMode, SystemConfig};
use etpp_workloads::{workload_by_name, Scale};

/// Parses a positional argument, or exits 2 with the parser's message —
/// a typo'd mode or scale must not silently probe a different cell.
fn parse_or_exit<T: std::str::FromStr<Err = String>>(s: &str) -> T {
    s.parse().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map(String::as_str).unwrap_or("HJ-8");
    let mode: PrefetchMode = parse_or_exit(args.get(1).map_or("manual", String::as_str));
    let scale: Scale = parse_or_exit(args.get(2).map_or("small", String::as_str));
    let wl = workload_by_name(name).expect("workload").build(scale);
    let mut cfg = SystemConfig::paper();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--lq" {
            cfg.core.lq_entries = it.next().expect("--lq N").parse().expect("count");
        } else if a == "--pfbuf" {
            cfg.mem.pf_buffer_entries = it.next().expect("--pfbuf N").parse().expect("count");
        } else if a == "--mshrs" {
            cfg.mem.l1.mshrs = it.next().expect("--mshrs N").parse().expect("count");
        }
    }
    let r = run(&cfg, mode, &wl).expect("runs");
    println!(
        "{name}/{mode:?}: cycles={} host_iters={} ff={:.2} validated={}",
        r.cycles,
        r.host_iters,
        r.ff(),
        r.validated
    );
    for (key, count) in r.visits.iter() {
        println!(
            "  {key:>18}: {count:>10} ({:.1}%)",
            count as f64 / r.host_iters.max(1) as f64 * 100.0
        );
    }
    println!(
        "  core: retries={} loads={} forwards={} insts={} active_cycles={}",
        r.core.load_retries,
        r.core.loads_issued,
        r.core.store_forwards,
        r.core.insts_retired,
        r.core.active_cycles
    );
}
