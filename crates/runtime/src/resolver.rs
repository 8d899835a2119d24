//! Location-transparent naming: resolvers map object *names* to live
//! endpoint sets.
//!
//! The paper's premise is that a stub is compiled from a *pair of
//! declarations*, not against a fixed peer — so a reference should name
//! an **object** (a name plus the interface fingerprint it was compiled
//! against), not a socket. A [`Resolver`] owns that mapping: given an
//! [`ObjectName`] it returns the replicas currently serving it, in
//! preference order, and a monotonically increasing [`version`] that
//! bumps whenever the set changes. A
//! [`ConnectionPool`](crate::pool::ConnectionPool) built over a resolver
//! re-reads the set whenever the version moves, creating circuit
//! breakers for endpoints that join and retiring the breakers of
//! endpoints that leave.
//!
//! The old fixed-endpoint path is preserved as the trivial
//! [`StaticResolver`]: one resolution at construction, a version that
//! never moves.
//!
//! [`version`]: Resolver::version

use std::net::SocketAddr;

/// The logical identity of a remote object: a name and the layout
/// interface fingerprint the caller's stubs were compiled against.
///
/// Two replicas serve "the same object" when they advertise the same
/// name *and* the same interface fingerprint — a replica built from
/// different declarations is a different object even under the same
/// name, and resolving to it would decode requests as garbage.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ObjectName {
    /// Human-readable object name (the mesh advertisement key).
    pub name: String,
    /// Layout fingerprint of the operation table
    /// ([`interface_fingerprint`](crate::dispatch::interface_fingerprint)).
    pub interface_fp: u128,
}

impl ObjectName {
    /// An object name under a compiled interface fingerprint.
    #[must_use]
    pub fn new(name: impl Into<String>, interface_fp: u128) -> Self {
        ObjectName {
            name: name.into(),
            interface_fp,
        }
    }

    /// A name that matches any interface (used by the static path,
    /// which never filters by fingerprint).
    #[must_use]
    pub fn any(name: impl Into<String>) -> Self {
        Self::new(name, 0)
    }
}

impl std::fmt::Display for ObjectName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{:032x}", self.name, self.interface_fp)
    }
}

/// One replica a resolver returned: where to dial it and how the
/// resolver ranks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedEndpoint {
    /// The socket to dial.
    pub addr: SocketAddr,
    /// The zone the replica advertised (same-zone replicas sort first).
    pub zone: u32,
    /// Coarse latency tier within the zone (lower is closer).
    pub latency_tier: u8,
    /// The marshal-rules fingerprint the replica advertised. A mismatch
    /// with the caller's rules changes no wire byte, so the handshake
    /// accepts it; it is surfaced here because compiled artifacts only
    /// transfer between nodes that share rules.
    pub rules_fp: u64,
}

impl ResolvedEndpoint {
    /// An endpoint in zone 0, tier 0, with no rules fingerprint — what
    /// the static path produces from a bare address.
    #[must_use]
    pub fn plain(addr: SocketAddr) -> Self {
        ResolvedEndpoint {
            addr,
            zone: 0,
            latency_tier: 0,
            rules_fp: 0,
        }
    }
}

/// Maps object names to the replicas currently serving them.
///
/// Implementations must be cheap to poll: [`version`](Self::version) is
/// read before every routed call, so it should be an atomic load.
/// [`resolve`](Self::resolve) is only re-run when the version moved.
pub trait Resolver: Send + Sync {
    /// The replicas currently serving `name`, in preference order
    /// (closest zone / lowest tier first). An empty vector means no
    /// live replica is known — calls fail until one joins.
    fn resolve(&self, name: &ObjectName) -> Vec<ResolvedEndpoint>;

    /// Monotonic directory version; bumps whenever any resolution could
    /// have changed. Pools re-resolve when it moves.
    fn version(&self) -> u64;

    /// Whether the endpoint set can change after construction. Dynamic
    /// resolvers enable failover semantics (a
    /// [`RemoteRef`](crate::proxy::RemoteRef) over one re-resolves and
    /// retries across replicas); the static path keeps the historical
    /// fail-fast behaviour.
    fn is_dynamic(&self) -> bool {
        true
    }
}

/// The fixed-endpoint path as a resolver: the construction-time list,
/// in order, for every name, forever.
#[derive(Debug, Clone)]
pub struct StaticResolver {
    endpoints: Vec<ResolvedEndpoint>,
}

impl StaticResolver {
    /// A resolver always answering with `addrs`, in order.
    #[must_use]
    pub fn new(addrs: Vec<SocketAddr>) -> Self {
        StaticResolver {
            endpoints: addrs.into_iter().map(ResolvedEndpoint::plain).collect(),
        }
    }

    /// A resolver over fully-annotated endpoints (zones and tiers are
    /// respected by pools even without a mesh behind them).
    #[must_use]
    pub fn with_endpoints(endpoints: Vec<ResolvedEndpoint>) -> Self {
        StaticResolver { endpoints }
    }
}

impl Resolver for StaticResolver {
    fn resolve(&self, _name: &ObjectName) -> Vec<ResolvedEndpoint> {
        self.endpoints.clone()
    }

    fn version(&self) -> u64 {
        1
    }

    fn is_dynamic(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_resolver_answers_every_name_with_the_same_set() {
        let a: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let b: SocketAddr = "127.0.0.1:2".parse().unwrap();
        let r = StaticResolver::new(vec![a, b]);
        let one = r.resolve(&ObjectName::new("calc", 7));
        let two = r.resolve(&ObjectName::any("other"));
        assert_eq!(one, two);
        assert_eq!(one.len(), 2);
        assert_eq!(one[0].addr, a);
        assert_eq!(r.version(), 1, "static versions never move");
        assert!(!r.is_dynamic());
    }

    #[test]
    fn object_names_carry_the_fingerprint() {
        let n = ObjectName::new("calc", 0xABCD);
        assert_eq!(n.name, "calc");
        assert_eq!(n.interface_fp, 0xABCD);
        assert!(n.to_string().starts_with("calc@"));
        assert_ne!(n, ObjectName::any("calc"), "fingerprints distinguish");
    }
}
