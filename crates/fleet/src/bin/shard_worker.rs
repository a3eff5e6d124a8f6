//! `shard_worker` — one shard of the fleet as a standalone process.
//!
//! ```text
//! shard_worker --artifact PATH --socket PATH [--max-frame BYTES]
//! ```
//!
//! Boots a [`ShardArtifact`] from `--artifact`, binds a Unix listener at
//! `--socket` (removing any stale socket file first), prints one
//! readiness line to stdout, and serves queries forever. Exit codes:
//! `2` for bad usage, `1` for a bad artifact or socket error.

#![forbid(unsafe_code)]

use serpdiv_fleet::protocol::DEFAULT_MAX_FRAME;
use serpdiv_fleet::worker;
use serpdiv_index::ShardArtifact;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!("usage: shard_worker --artifact PATH --socket PATH [--max-frame BYTES]");
    std::process::exit(2);
}

fn main() {
    let mut artifact_path: Option<PathBuf> = None;
    let mut socket_path: Option<PathBuf> = None;
    let mut max_frame = DEFAULT_MAX_FRAME;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--artifact" => artifact_path = Some(args.next().unwrap_or_else(|| usage()).into()),
            "--socket" => socket_path = Some(args.next().unwrap_or_else(|| usage()).into()),
            "--max-frame" => {
                max_frame = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            _ => usage(),
        }
    }
    let (Some(artifact_path), Some(socket_path)) = (artifact_path, socket_path) else {
        usage()
    };

    let bytes = std::fs::read(&artifact_path).unwrap_or_else(|e| {
        eprintln!("shard_worker: cannot read {}: {e}", artifact_path.display());
        std::process::exit(1);
    });
    let artifact = ShardArtifact::from_bytes(&bytes).unwrap_or_else(|e| {
        eprintln!(
            "shard_worker: invalid artifact {}: {e}",
            artifact_path.display()
        );
        std::process::exit(1);
    });

    // A stale socket file from a previous run would make bind fail.
    let _ = std::fs::remove_file(&socket_path);
    let listener = UnixListener::bind(&socket_path).unwrap_or_else(|e| {
        eprintln!("shard_worker: cannot bind {}: {e}", socket_path.display());
        std::process::exit(1);
    });

    println!(
        "shard_worker ready shard={}/{} base={} docs={} socket={}",
        artifact.shard_id(),
        artifact.num_shards(),
        artifact.base(),
        artifact.range_len(),
        socket_path.display()
    );

    worker::serve(&listener, &artifact, max_frame);
}
