//! Cluster-warm caches: the `MBAR` artifact-fetch exchange.
//!
//! A node joining the mesh already knows (from `ObjectAd` gossip) which
//! peers advertise a store digest different from its own. Before
//! compiling anything it dials such a peer, proves fingerprint agreement
//! with the ordinary `Hello` handshake, and pulls the wire programs and
//! verdicts it is missing with one `Artifact` request. Every received
//! record is re-hashed on receipt; a record whose body does not match its
//! claimed content id is dropped (and counted), and the joining node
//! falls back to local compilation for that key — a hostile or corrupt
//! peer can waste bandwidth but can never plant a bad program.

use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mockingbird_artifact::{ArtifactStore, FetchReply, FetchRequest};
use mockingbird_values::Endian;
use mockingbird_wire::{HandshakeInfo, HandshakeVerdict, Message, MessageKind};

use crate::error::RuntimeError;
use crate::metrics::MetricsRegistry;
use crate::transport::{read_frame, write_frame};

/// How long a whole fetch, handshake included, waits for the peer's
/// replies before giving up (the caller falls back to cold compilation,
/// so this only bounds join time).
const FETCH_TIMEOUT: Duration = Duration::from_secs(10);

/// Builds the server-side answer to one `MBAR` fetch frame. A missing
/// store, an undecodable request, or a rules mismatch all produce an
/// *empty* reply rather than an error: the requester treats it as "peer
/// has nothing for me" and compiles locally.
pub(crate) fn artifact_fetch_reply(
    request_id: u32,
    endian: Endian,
    body: &[u8],
    store: Option<&dyn ArtifactStore>,
) -> Message {
    let reply = match (store, FetchRequest::from_bytes(body)) {
        (Some(store), Ok(req)) => FetchReply::from_store(store, &req),
        _ => FetchReply {
            store_digest: 0,
            records: Vec::new(),
        },
    };
    Message::artifact(request_id, true, endian, reply.to_bytes())
}

/// The outcome of one peer fetch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FetchOutcome {
    /// Records received, content-verified, and inserted into the store.
    pub fetched: usize,
    /// Body bytes of the verified records.
    pub bytes: u64,
    /// Records dropped because their body did not match the claimed
    /// content hash.
    pub rejected: usize,
    /// Records skipped because the local store already held the key.
    pub already_present: usize,
    /// The peer's advertised store digest, from the reply.
    pub peer_digest: u64,
}

/// Fetches artifacts from one peer into `store`.
///
/// The exchange runs on a fresh blocking socket: `Hello` proposal first —
/// the fetch proceeds only on [`HandshakeVerdict::Accept`], i.e. only
/// from a peer whose interface *and* rules fingerprints already proved
/// agreement (an `InterpretiveOnly` peer compiled under different rules,
/// so its programs are useless here) — then one `Artifact` request for
/// every key under our rules fingerprint that we are missing.
///
/// Every record is re-hashed on receipt; mismatches are dropped and
/// counted in [`FetchOutcome::rejected`] and the registry's
/// `artifact_integrity_failures`.
///
/// # Errors
///
/// Transport/protocol failures and handshake refusals surface as
/// [`RuntimeError`]; the caller falls back to local compilation.
pub fn fetch_artifacts(
    addr: SocketAddr,
    info: &HandshakeInfo,
    store: &dyn ArtifactStore,
    metrics: &MetricsRegistry,
) -> Result<FetchOutcome, RuntimeError> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| RuntimeError::Transport(e.to_string()))?;
    stream.set_nodelay(true).ok();
    let deadline = Some(Instant::now() + FETCH_TIMEOUT);

    // Prove agreement first: same Hello the call path uses.
    metrics.add_handshake();
    let hello = Message::hello(*info, HandshakeVerdict::Propose, Endian::Little);
    write_frame(&mut stream, &hello, metrics)?;
    let reply = read_frame(&mut stream, deadline, metrics)?
        .ok_or_else(|| RuntimeError::Transport("peer closed during the handshake".into()))?;
    let MessageKind::Hello { verdict, .. } = reply.kind else {
        return Err(RuntimeError::Protocol(
            "expected a Hello reply to the handshake".into(),
        ));
    };
    if verdict != HandshakeVerdict::Accept {
        metrics.add_handshake_reject();
        return Err(RuntimeError::VersionSkew(format!(
            "peer verdict {verdict:?}: artifacts only transfer between fully agreeing nodes"
        )));
    }

    let request = FetchRequest {
        rules_fp: info.rules_fp,
        want: None,
    };
    let frame = Message::artifact(1, false, Endian::Little, request.to_bytes());
    write_frame(&mut stream, &frame, metrics)?;
    let reply = read_frame(&mut stream, deadline, metrics)?
        .ok_or_else(|| RuntimeError::Transport("peer closed during the artifact fetch".into()))?;
    let MessageKind::Artifact { reply: true, .. } = reply.kind else {
        return Err(RuntimeError::Protocol(
            "expected an Artifact reply to the fetch".into(),
        ));
    };
    let decoded =
        FetchReply::from_bytes(&reply.body).map_err(|e| RuntimeError::Protocol(e.to_string()))?;

    let mut outcome = FetchOutcome {
        peer_digest: decoded.store_digest,
        ..FetchOutcome::default()
    };
    for record in decoded.records {
        // Content verification on every transfer: recompute the hash of
        // the received body before the record may enter the store.
        if !record.verify() {
            metrics.add_artifact_integrity_failure();
            outcome.rejected += 1;
            continue;
        }
        if store.contains(&record.key) {
            outcome.already_present += 1;
            continue;
        }
        store.put(record.key, &record.body);
        metrics.add_peer_fetch();
        metrics.add_peer_fetch_bytes(record.body.len() as u64);
        outcome.fetched += 1;
        outcome.bytes += record.body.len() as u64;
    }
    Ok(outcome)
}

/// Warms `store` from several peers in turn, accumulating the outcomes.
/// Peers that fail (unreachable, refuse the handshake, protocol errors)
/// are skipped — the next peer, or a cold compile, covers their keys.
pub fn warm_store_from_peers(
    store: &dyn ArtifactStore,
    peers: &[SocketAddr],
    info: &HandshakeInfo,
    metrics: &MetricsRegistry,
) -> FetchOutcome {
    let mut total = FetchOutcome::default();
    for &peer in peers {
        match fetch_artifacts(peer, info, store, metrics) {
            Ok(outcome) => {
                total.fetched += outcome.fetched;
                total.bytes += outcome.bytes;
                total.rejected += outcome.rejected;
                total.already_present += outcome.already_present;
                total.peer_digest = outcome.peer_digest;
            }
            Err(_) => continue,
        }
    }
    total
}

/// Copies a store's own counters into a node's metrics registry (the
/// store counts hits/misses/evictions internally; this surfaces them
/// through the Prometheus exposition). Counter deltas since the last
/// sync are the caller's affair: simplest is to call this once, at
/// scrape or report time.
pub fn record_store_stats(store: &dyn ArtifactStore, metrics: &MetricsRegistry) {
    let stats = store.stats();
    metrics.add_artifact_hits(stats.hits);
    metrics.add_artifact_misses(stats.misses);
    metrics.add_artifact_evictions(stats.evictions);
    for _ in 0..stats.integrity_failures {
        metrics.add_artifact_integrity_failure();
    }
}

/// Convenience: a shared reference to a store as the trait object the
/// server config wants.
pub fn as_store(store: Arc<impl ArtifactStore + 'static>) -> Arc<dyn ArtifactStore> {
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use mockingbird_artifact::{ArtifactKind, MemoryStore, StoreKey};

    fn key(n: u64, rules_fp: u64) -> StoreKey {
        StoreKey {
            kind: ArtifactKind::WireProgram,
            left_fp: n as u128,
            right_fp: (n as u128) << 8,
            subtype: false,
            rules_fp,
        }
    }

    #[test]
    fn fetch_reply_without_store_is_empty() {
        let msg = artifact_fetch_reply(
            9,
            Endian::Little,
            &FetchRequest {
                rules_fp: 1,
                want: None,
            }
            .to_bytes(),
            None,
        );
        let MessageKind::Artifact {
            request_id,
            reply: true,
        } = msg.kind
        else {
            panic!("not an artifact reply");
        };
        assert_eq!(request_id, 9);
        let decoded = FetchReply::from_bytes(&msg.body).unwrap();
        assert!(decoded.records.is_empty());
    }

    #[test]
    fn fetch_reply_filters_by_rules_fp() {
        let store = MemoryStore::new();
        store.put(key(1, 7), b"ours");
        store.put(key(2, 8), b"theirs");
        let msg = artifact_fetch_reply(
            1,
            Endian::Little,
            &FetchRequest {
                rules_fp: 7,
                want: None,
            }
            .to_bytes(),
            Some(&store),
        );
        let decoded = FetchReply::from_bytes(&msg.body).unwrap();
        assert_eq!(decoded.records.len(), 1);
        assert_eq!(decoded.records[0].body, b"ours");
        assert_eq!(decoded.store_digest, store.digest());
    }

    #[test]
    fn garbage_fetch_request_yields_empty_reply_not_panic() {
        let store = MemoryStore::new();
        store.put(key(1, 7), b"ours");
        let msg = artifact_fetch_reply(1, Endian::Little, b"not an MBAR payload", Some(&store));
        let decoded = FetchReply::from_bytes(&msg.body).unwrap();
        assert!(decoded.records.is_empty());
    }

    #[test]
    fn record_store_stats_surfaces_counters() {
        let store = MemoryStore::new();
        store.put(key(1, 7), b"ours");
        store.get(&key(1, 7));
        store.get(&key(2, 7));
        let metrics = MetricsRegistry::new();
        record_store_stats(&store, &metrics);
        let s = metrics.snapshot();
        assert_eq!(s.artifact_hits, 1);
        assert_eq!(s.artifact_misses, 1);
    }
}
