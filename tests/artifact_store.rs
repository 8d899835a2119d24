//! The artifact store end to end: warm cold-starts from segment files,
//! hostile store files failing closed, and cluster-warm caches over real
//! TCP (`MBAR`). The `mbc --store` seam is tested in `tests/cli.rs`,
//! next to the `mbc` binary it drives.
//!
//! Unit tests in `crates/artifact` cover each corruption in isolation;
//! here the corrupt store feeds a real batch compile and the forged peer
//! is a real socket.

use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;

use mockingbird::artifact::{
    ArtifactId, ArtifactStore, FetchReply, FetchRequest, MemoryStore, SegmentStore, XferRecord,
};
use mockingbird::comparer::{CompareCache, RuleSet};
use mockingbird::corpus::marshal_corpus;
use mockingbird::runtime::{fetch_artifacts, Dispatcher, MetricsRegistry, ServerConfig, TcpServer};
use mockingbird::values::Endian;
use mockingbird::wire::{HandshakeInfo, HandshakeVerdict, Message, MessageKind, ProgramCache};
use mockingbird::{BatchCompiler, BatchOptions};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mb-store-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small compiled corpus: the batch report plus the compiler (whose
/// caches hold every verdict and wire program the run produced).
fn compiled_corpus(classes: usize) -> (mockingbird::corpus::MarshalCorpus, BatchCompiler) {
    let corpus = marshal_corpus(classes, 42);
    let bc = BatchCompiler::new(corpus.graph.clone());
    let report = bc.compile(&corpus.pairs, &BatchOptions::default());
    assert!(report.stats.programs.compiles > 0, "cold run must compile");
    (corpus, bc)
}

#[test]
fn warm_segment_store_cold_start_compiles_nothing() {
    let dir = scratch("warm");
    let (corpus, bc) = compiled_corpus(30);
    let store = SegmentStore::open(&dir).unwrap();
    bc.cache().store_into(&store);
    bc.programs().store_into(&store);
    assert!(store.commit().unwrap() > 0);
    drop((store, bc));

    // A fresh "process": nothing but the store directory.
    let store = SegmentStore::open(&dir).unwrap();
    assert_eq!(store.stats().integrity_failures, 0);
    let cache = Arc::new(CompareCache::new());
    let programs = Arc::new(ProgramCache::new());
    cache.load_from(&store);
    programs.load_from(&store);
    let bc = BatchCompiler::new(corpus.graph.clone())
        .with_cache(cache)
        .with_programs(programs);
    let report = bc.compile(&corpus.pairs, &BatchOptions::default());
    assert_eq!(
        report.stats.programs.compiles, 0,
        "every program must come from the store"
    );
    assert_eq!(report.stats.cache.misses, 0, "every verdict must be warm");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_segment_fails_closed_and_batch_recovers_by_compiling() {
    let dir = scratch("corrupt");
    let (corpus, bc) = compiled_corpus(20);
    let store = SegmentStore::open(&dir).unwrap();
    bc.cache().store_into(&store);
    bc.programs().store_into(&store);
    store.commit().unwrap();
    drop((store, bc));

    // Flip a byte in the middle of the segment: decode stops at the bad
    // record, everything before it survives, nothing after it does.
    let seg = dir.join("seg-000001.mbas");
    let mut bytes = std::fs::read(&seg).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&seg, &bytes).unwrap();

    let store = SegmentStore::open(&dir).unwrap();
    assert_eq!(store.stats().integrity_failures, 1);
    let full: usize = corpus.pairs.len();
    assert!(store.len() < 2 * full, "corruption must cost records");

    // The store never lies: whatever loaded is genuine, and the batch
    // recompiles the rest rather than trusting damaged bytes.
    let cache = Arc::new(CompareCache::new());
    let programs = Arc::new(ProgramCache::new());
    cache.load_from(&store);
    programs.load_from(&store);
    let bc = BatchCompiler::new(corpus.graph.clone())
        .with_cache(cache)
        .with_programs(programs);
    let report = bc.compile(&corpus.pairs, &BatchOptions::default());
    assert_eq!(report.stats.mismatched, 0, "results stay correct");

    // Truncation likewise opens (fail closed, not refuse-to-open).
    let shorter = &bytes[..bytes.len() - 7];
    std::fs::write(&seg, shorter).unwrap();
    let store = SegmentStore::open(&dir).unwrap();
    assert!(store.stats().integrity_failures >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn peer_fetch_over_tcp_reaches_zero_compile_steady_state() {
    let (corpus, bc) = compiled_corpus(25);
    let rules_fp = RuleSet::full().fingerprint();
    let info = HandshakeInfo::new(0xF17AA, rules_fp);

    // The peer: a real GIOP server fronting the warm store.
    let peer_store = Arc::new(MemoryStore::new());
    bc.cache().store_into(peer_store.as_ref());
    bc.programs().store_into(peer_store.as_ref());
    let mut server = TcpServer::bind_with(
        "127.0.0.1:0",
        Arc::new(Dispatcher::new()),
        ServerConfig::default()
            .with_handshake(info)
            .with_artifact_store(peer_store.clone()),
    )
    .unwrap();

    // The joining node: empty store, one MBAR fetch.
    let local = MemoryStore::new();
    let metrics = MetricsRegistry::new();
    let outcome = fetch_artifacts(server.addr(), &info, &local, &metrics).unwrap();
    assert_eq!(outcome.rejected, 0);
    assert_eq!(outcome.fetched, peer_store.len());
    assert_eq!(outcome.peer_digest, peer_store.digest());
    assert_eq!(local.digest(), peer_store.digest());
    assert_eq!(metrics.snapshot().peer_fetches, outcome.fetched as u64);

    // Steady state: the joined node compiles nothing.
    let cache = Arc::new(CompareCache::new());
    let programs = Arc::new(ProgramCache::new());
    cache.load_from(&local);
    programs.load_from(&local);
    let bc = BatchCompiler::new(corpus.graph.clone())
        .with_cache(cache)
        .with_programs(programs);
    let report = bc.compile(&corpus.pairs, &BatchOptions::default());
    assert_eq!(report.stats.programs.compiles, 0);
    server.shutdown();
}

/// Reads one framed GIOP message off a raw socket: 12-byte preamble,
/// then the big-endian length it declares.
fn read_giop_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut hdr = [0u8; 12];
    stream.read_exact(&mut hdr).unwrap();
    let len = u32::from_be_bytes(hdr[8..12].try_into().unwrap()) as usize;
    let mut all = hdr.to_vec();
    all.resize(12 + len, 0);
    stream.read_exact(&mut all[12..]).unwrap();
    all
}

#[test]
fn forged_peer_record_is_rejected_by_content_hash() {
    use mockingbird::artifact::{ArtifactKind, StoreKey};
    let rules_fp = 7u64;
    let key = move |n: u64| StoreKey {
        kind: ArtifactKind::WireProgram,
        left_fp: n as u128,
        right_fp: (n as u128) << 8,
        subtype: false,
        rules_fp,
    };

    // A hostile peer on a raw socket: accepts the handshake, then ships
    // one genuine record and one whose body does not match its claimed
    // content id (a planted program).
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let hello = Message::from_bytes(&read_giop_frame(&mut s)).unwrap();
        let MessageKind::Hello { info, .. } = hello.kind else {
            panic!("expected Hello first");
        };
        let accept = Message::hello(info, HandshakeVerdict::Accept, Endian::Little);
        s.write_all(&accept.to_bytes()).unwrap();

        let req_msg = Message::from_bytes(&read_giop_frame(&mut s)).unwrap();
        let MessageKind::Artifact {
            request_id,
            reply: false,
        } = req_msg.kind
        else {
            panic!("expected an Artifact request");
        };
        let req = FetchRequest::from_bytes(&req_msg.body).unwrap();
        let genuine = XferRecord {
            key: key(1),
            id: ArtifactId::of(b"honest program"),
            body: b"honest program".to_vec(),
        };
        let forged = XferRecord {
            key: key(2),
            id: ArtifactId::of(b"what the hash claims"),
            body: b"what actually ships".to_vec(),
        };
        assert!(!forged.verify());
        let reply = FetchReply {
            store_digest: 0xbad,
            records: vec![genuine, forged],
        };
        assert_eq!(req.rules_fp, rules_fp);
        let frame = Message::artifact(request_id, true, Endian::Little, reply.to_bytes());
        s.write_all(&frame.to_bytes()).unwrap();
    });

    let local = MemoryStore::new();
    let metrics = MetricsRegistry::new();
    let info = HandshakeInfo::new(0xF00D, rules_fp);
    let outcome = fetch_artifacts(addr, &info, &local, &metrics).unwrap();
    peer.join().unwrap();

    assert_eq!(outcome.fetched, 1, "the honest record lands");
    assert_eq!(outcome.rejected, 1, "the forged record is dropped");
    assert!(local.contains(&key(1)));
    assert!(!local.contains(&key(2)), "a planted program never enters");
    assert_eq!(metrics.snapshot().artifact_integrity_failures, 1);
}

#[test]
fn rules_disagreement_blocks_artifact_transfer() {
    let rules_fp = RuleSet::full().fingerprint();
    // The peer holds records under the joiner's rules, which is what it
    // would ship if the fetcher let the transfer go ahead.
    let (_, bc) = compiled_corpus(10);
    let peer_store = Arc::new(MemoryStore::new());
    bc.cache().store_into(peer_store.as_ref());
    bc.programs().store_into(peer_store.as_ref());
    assert!(!peer_store.is_empty());
    let mut server = TcpServer::bind_with(
        "127.0.0.1:0",
        Arc::new(Dispatcher::new()),
        // Same interface, different rules: the handshake accepts, but
        // the fetcher sees other rules in the reply and moves nothing.
        ServerConfig::default()
            .with_handshake(HandshakeInfo::new(0xF17AA, rules_fp ^ 1))
            .with_artifact_store(peer_store),
    )
    .unwrap();
    let local = MemoryStore::new();
    let metrics = MetricsRegistry::new();
    let info = HandshakeInfo::new(0xF17AA, rules_fp);
    let err = fetch_artifacts(server.addr(), &info, &local, &metrics).unwrap_err();
    assert!(
        err.to_string()
            .contains(&format!("under rules {:016x}", rules_fp ^ 1)),
        "unexpected error: {err}"
    );
    assert!(local.is_empty());
    assert_eq!(metrics.snapshot().handshake_rejects, 1);
    server.shutdown();
}
