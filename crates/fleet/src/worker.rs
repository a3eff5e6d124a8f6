//! The shard-worker side of the fleet: a single-shard scoring server.
//!
//! A worker boots from one serialized [`ShardArtifact`], binds a Unix
//! socket, and answers [`Frame::Query`] with the shard-local top-`k` and
//! [`Frame::Ping`] with its shard identity. Scoring reuses the exact
//! dense-accumulator path of the in-process sharded index, so the bits a
//! worker returns are the bits the same shard would have produced
//! in-process.
//!
//! Error policy is deliberately blunt: any frame that fails to decode,
//! any unexpected frame kind, and any transport error **drops the
//! connection**. Nothing downstream of a framing error can be trusted,
//! and the router treats a dropped connection as a shard failure it
//! recovers from by reconnecting on its next query — so the cheapest
//! correct move for the worker is to hang up and wait in `accept` for the
//! next connection. A worker never panics on peer input.
//!
//! The worker has no fault hooks of its own. [`serve_connection`] takes
//! any `Read + Write`, so a test that wants corrupted, failed or
//! swallowed replies wraps the stream it hands over (the corruption-heavy
//! plan of `tests/chaos_soak.rs` does).

use crate::protocol::{write_frame, Frame, FrameReader};
use serpdiv_index::ShardArtifact;
use std::io::{Read, Write};
use std::os::unix::net::UnixListener;

/// Serve `artifact` on `listener` forever, each connection on its own
/// scoped thread.
///
/// Concurrent connections are load-bearing for the router's hedging: a
/// hedged query arrives on a *fresh* connection while the stalled
/// primary connection is still open, and must be answerable immediately
/// — not after the primary hangs up. The artifact is immutable, so
/// connection handlers share it freely.
pub fn serve(listener: &UnixListener, artifact: &ShardArtifact, max_frame: u32) {
    std::thread::scope(|scope| {
        for stream in listener.incoming() {
            match stream {
                Ok(stream) => {
                    scope.spawn(move || serve_connection(stream, artifact, max_frame));
                }
                Err(_) => continue,
            }
        }
    });
}

/// Answer frames on one connection until the peer hangs up or breaks
/// protocol. Requests are read through a [`FrameReader`], so a request
/// that arrived whole costs one `read`, and each reply is one `write`.
pub fn serve_connection(mut stream: impl Read + Write, artifact: &ShardArtifact, max_frame: u32) {
    let mut reader = FrameReader::new(max_frame);
    loop {
        let frame = match reader.read_frame(&mut stream) {
            Ok(frame) => frame,
            // EOF, reset, or garbage: hang up, wait for the next peer.
            Err(_) => return,
        };
        let reply = match frame {
            Frame::Query { id, k, terms } => {
                // Clamp k to the shard range: the shard cannot rank more
                // documents than it holds, and an untrusted k must not
                // size any allocation.
                let k = (k as usize).min(artifact.range_len());
                Frame::Hits {
                    id,
                    hits: artifact.score_terms(&terms, k),
                }
            }
            Frame::Ping { id } => Frame::Pong {
                id,
                shard_id: artifact.shard_id(),
                base: artifact.base(),
                range_len: artifact.range_len() as u32,
            },
            // Reply frames flowing router → worker are a protocol
            // violation; condemn the connection.
            Frame::Hits { .. } | Frame::Pong { .. } => return,
        };
        // One `write` per reply; a failed write hangs up.
        if write_frame(&mut stream, &reply).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::read_frame;
    use serpdiv_index::{Document, IndexBuilder, ShardedIndex};
    use std::os::unix::net::UnixStream;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn socket_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "serpdiv-worker-test-{}-{tag}.sock",
            std::process::id()
        ));
        p
    }

    fn artifact_bytes() -> Vec<u8> {
        let mut b = IndexBuilder::new();
        for i in 0..20u32 {
            b.add(Document::new(
                i,
                format!("u{i}"),
                "apple",
                format!("apple iphone doc number {i} with apples"),
            ));
        }
        let sharded = ShardedIndex::build(Arc::new(b.build()), 2);
        sharded.export_shard(1)
    }

    #[test]
    fn worker_answers_ping_and_query_and_drops_bad_peers() {
        let bytes = artifact_bytes();
        let art = ShardArtifact::from_bytes(&bytes).unwrap();
        let path = socket_path("basic");
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).unwrap();
        let handle = std::thread::spawn(move || {
            let art = ShardArtifact::from_bytes(&bytes).unwrap();
            // Serve exactly two connections, then exit the thread.
            for stream in listener.incoming().take(2) {
                serve_connection(stream.unwrap(), &art, crate::protocol::DEFAULT_MAX_FRAME);
            }
        });

        // First connection: ping, then query, on one stream.
        let mut conn = UnixStream::connect(&path).unwrap();
        write_frame(&mut conn, &Frame::Ping { id: 9 }).unwrap();
        let pong = read_frame(&mut conn, crate::protocol::DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(
            pong,
            Frame::Pong {
                id: 9,
                shard_id: 1,
                base: art.base(),
                range_len: art.range_len() as u32,
            }
        );
        write_frame(
            &mut conn,
            &Frame::Query {
                id: 10,
                k: 1_000_000, // absurd k must be clamped, not allocated
                terms: vec![serpdiv_text::TermId(0)],
            },
        )
        .unwrap();
        match read_frame(&mut conn, crate::protocol::DEFAULT_MAX_FRAME).unwrap() {
            Frame::Hits { id, hits } => {
                assert_eq!(id, 10);
                assert!(hits.len() <= art.range_len());
            }
            other => panic!("expected hits, got {other:?}"),
        }
        drop(conn);

        // Second connection: garbage bytes get the connection dropped
        // (read returns EOF) without killing the worker loop.
        let mut evil = UnixStream::connect(&path).unwrap();
        use std::io::{Read, Write};
        evil.write_all(&[0xFF; 64]).unwrap();
        // The worker hangs up: clean EOF, or ECONNRESET if it closed
        // while our garbage was still unread.
        let mut buf = [0u8; 1];
        match evil.read(&mut buf) {
            Ok(n) => assert_eq!(n, 0, "worker must not answer garbage"),
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset),
        }
        drop(evil);

        handle.join().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    /// A peer that delivers one scripted chunk per `read` (then end of
    /// stream) and records every `write`.
    struct ScriptedPeer {
        chunks: std::collections::VecDeque<Vec<u8>>,
        reads: usize,
        writes: Vec<Vec<u8>>,
    }

    impl std::io::Read for ScriptedPeer {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            let Some(chunk) = self.chunks.pop_front() else {
                return Ok(0);
            };
            assert!(chunk.len() <= buf.len(), "the worker reads greedily");
            buf[..chunk.len()].copy_from_slice(&chunk);
            Ok(chunk.len())
        }
    }

    impl std::io::Write for ScriptedPeer {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_request_costs_the_worker_one_read_and_one_write() {
        let bytes = artifact_bytes();
        let art = ShardArtifact::from_bytes(&bytes).unwrap();
        let query = |id| {
            crate::protocol::encode_frame(&Frame::Query {
                id,
                k: 5,
                terms: vec![serpdiv_text::TermId(0)],
            })
        };
        // Three requests, one per read, then two that arrived together.
        let mut chunks: std::collections::VecDeque<Vec<u8>> = (0..3).map(query).collect();
        chunks.push_back([query(3), query(4)].concat());
        let mut peer = ScriptedPeer {
            chunks,
            reads: 0,
            writes: Vec::new(),
        };
        serve_connection(&mut peer, &art, crate::protocol::DEFAULT_MAX_FRAME);
        // Four chunks and the end of stream.
        assert_eq!(peer.reads, 5);
        assert_eq!(peer.writes.len(), 5, "one write per reply");
        for (id, wire) in peer.writes.iter().enumerate() {
            match crate::protocol::decode_payload(&wire[4..]) {
                Ok(Frame::Hits { id: got, .. }) => assert_eq!(got, id as u64),
                other => panic!("expected hits {id}, got {other:?}"),
            }
        }
    }
}
