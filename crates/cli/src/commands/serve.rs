//! `cdsf serve` — run the scheduling service until a client shuts it down.

use crate::args::{Args, CliError};
use cdsf_serve::{ServeConfig, Server};
use std::io::Write;

/// Binds the service, announces the address on stdout (so scripts can
/// scrape the ephemeral port), and blocks until a client sends
/// `Shutdown`. Returns a final stats summary.
pub fn run(args: &Args) -> Result<String, CliError> {
    let host = args.get("host").unwrap_or("127.0.0.1");
    let port: u16 = args.get_parsed("port", 0)?;
    let mut cfg = ServeConfig {
        shards: args.get_parsed("shards", ServeConfig::default().shards)?,
        build_threads: args.get_parsed("threads", ServeConfig::default().build_threads)?,
        phi1_threshold: args.get_parsed("threshold", ServeConfig::default().phi1_threshold)?,
        ..ServeConfig::default()
    };
    // Shards refuse a threshold outside (0, 1], so a server started with
    // one would refuse every submit that names no threshold of its own.
    if !ServeConfig::threshold_ok(cfg.phi1_threshold) {
        return Err(CliError::BadValue {
            flag: "--threshold".to_string(),
            value: args.get("threshold").unwrap_or_default().to_string(),
        });
    }
    if let Some(allocator) = args.get("allocator") {
        super::allocator_policy(allocator)?;
        cfg.default_allocator = allocator.to_string();
    }

    let server = Server::bind((host, port), cfg.clone())
        .map_err(|e| CliError::Framework(format!("bind {host}:{port}: {e}")))?;
    // Announce immediately and flush: scripts block on this line to learn
    // the ephemeral port before they connect.
    println!("cdsf-serve listening on {}", server.addr());
    println!(
        "  shards {} | {} build threads | allocator {} | threshold {}",
        cfg.shards, cfg.build_threads, cfg.default_allocator, cfg.phi1_threshold
    );
    let _ = std::io::stdout().flush();

    let stats = server.wait();
    let total = &stats.total;
    if args.json() {
        serde_json::to_string_pretty(&stats).map_err(|e| CliError::Framework(e.to_string()))
    } else {
        Ok(format!(
            "cdsf-serve stopped\n\
               requests: {} submits, {} injects, {} snapshots, {} restores, {} errors\n\
               tenants: {} | cache: {} hits / {} misses / {} rebuilds | coalescing {:.3}\n\
               pool: {} runs, {} tasks, {} chunks stolen",
            total.submits,
            total.injects,
            total.snapshots,
            total.restores,
            total.errors,
            total.tenants,
            total.cache_hits,
            total.cache_misses,
            total.cache_rebuilds,
            total.coalescing_factor(),
            total.pool_runs,
            total.pool_tasks_run,
            total.pool_chunks_stolen,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from).collect()).unwrap()
    }

    #[test]
    fn a_threshold_outside_the_unit_interval_is_refused_before_binding() {
        for t in ["0", "-0.5", "1.5", "NaN"] {
            match run(&args(&format!("serve --threshold {t}"))) {
                Err(CliError::BadValue { flag, value }) => {
                    assert_eq!((flag.as_str(), value.as_str()), ("--threshold", t))
                }
                other => panic!("threshold {t}: expected BadValue, got {other:?}"),
            }
        }
    }

    #[test]
    fn an_unknown_allocator_or_unparsable_port_is_refused_before_binding() {
        for (line, flag) in [
            ("serve --allocator no-such-policy", "--allocator"),
            ("serve --port 70000", "--port"),
            ("serve --shards many", "--shards"),
        ] {
            match run(&args(line)) {
                Err(CliError::BadValue { flag: got, .. }) => assert_eq!(got, flag, "{line}"),
                other => panic!("{line}: expected BadValue, got {other:?}"),
            }
        }
    }
}
