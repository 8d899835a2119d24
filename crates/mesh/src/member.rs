//! Membership state: object advertisements and per-member records.

use std::net::SocketAddr;

use mockingbird_wire::HandshakeInfo;

/// One object a node serves, as gossiped to the cluster: everything a
/// client needs to decide whether this replica can serve its compiled
/// stubs (the fingerprints) and how attractive it is (zone and tier).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectAd {
    /// The object's name (the resolution key).
    pub name: String,
    /// Fingerprint of the operation table the servant was built from.
    /// A resolver only matches replicas whose fingerprint equals the
    /// caller's — same name under a different fingerprint is a
    /// *different* object.
    pub interface_fp: u128,
    /// Marshal-rules fingerprint. Rules never change the wire bytes, so
    /// a mismatch does not gate resolution or the dial-time handshake;
    /// it is advertised because compiled artifacts only transfer between
    /// nodes that share rules.
    pub rules_fp: u64,
    /// Where to dial the replica.
    pub endpoint: SocketAddr,
    /// The zone the serving node sits in.
    pub zone: u32,
    /// Coarse latency tier within the zone (lower is closer).
    pub latency_tier: u8,
}

impl ObjectAd {
    /// An advertisement for `name` served at `endpoint` under the given
    /// fingerprints, in zone 0 / tier 0.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        interface_fp: u128,
        rules_fp: u64,
        endpoint: SocketAddr,
    ) -> Self {
        ObjectAd {
            name: name.into(),
            interface_fp,
            rules_fp,
            endpoint,
            zone: 0,
            latency_tier: 0,
        }
    }

    /// An advertisement built from the same [`HandshakeInfo`] the node
    /// answers dials with — the fingerprints a client will verify at
    /// connect time are exactly the ones gossiped, so resolution and
    /// handshake can never disagree about identity.
    #[must_use]
    pub fn from_handshake(
        name: impl Into<String>,
        info: &HandshakeInfo,
        endpoint: SocketAddr,
    ) -> Self {
        Self::new(name, info.interface_fp, info.rules_fp, endpoint)
    }

    /// Places the advertisement in `zone`.
    #[must_use]
    pub fn in_zone(mut self, zone: u32) -> Self {
        self.zone = zone;
        self
    }

    /// Sets the latency tier.
    #[must_use]
    pub fn with_tier(mut self, tier: u8) -> Self {
        self.latency_tier = tier;
        self
    }
}

/// Whether a member is serving or has announced its departure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberStatus {
    /// Serving traffic.
    Alive,
    /// Departed on purpose (a `leave` announcement). Distinct from
    /// failure-detector suspicion: a Left member never comes back under
    /// the same incarnation.
    Left,
}

/// One member's gossiped state: who it is, how fresh the information
/// is, and what it serves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberState {
    /// The member's stable node id.
    pub node: u64,
    /// Bumped by the member itself on each leave/rejoin; the strongest
    /// freshness signal.
    pub incarnation: u64,
    /// Monotonic liveness counter within an incarnation; advances every
    /// gossip round the member is up.
    pub heartbeat: u64,
    /// The zone the member claims.
    pub zone: u32,
    /// Alive or departed.
    pub status: MemberStatus,
    /// The objects the member serves.
    pub ads: Vec<ObjectAd>,
    /// Digest of the member's artifact store (0 = no store advertised).
    /// A joining node compares this against its own digest to decide
    /// whether a peer has compiled programs worth fetching; it is
    /// deliberately *not* part of the membership digest — stores warm
    /// and evict without implying membership disagreement.
    pub store_digest: u64,
}

impl MemberState {
    /// Whether `other` carries strictly fresher information than `self`
    /// under the gossip precedence rules: a higher incarnation always
    /// wins; within an incarnation a departure announcement beats
    /// liveness; otherwise the higher heartbeat wins.
    #[must_use]
    pub fn superseded_by(&self, other: &MemberState) -> bool {
        if other.incarnation != self.incarnation {
            return other.incarnation > self.incarnation;
        }
        match (self.status, other.status) {
            (MemberStatus::Alive, MemberStatus::Left) => true,
            (MemberStatus::Left, MemberStatus::Alive) => false,
            _ => other.heartbeat > self.heartbeat,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn member(incarnation: u64, heartbeat: u64, status: MemberStatus) -> MemberState {
        MemberState {
            node: 7,
            incarnation,
            heartbeat,
            zone: 0,
            status,
            ads: Vec::new(),
            store_digest: 0,
        }
    }

    #[test]
    fn precedence_incarnation_then_left_then_heartbeat() {
        let base = member(1, 5, MemberStatus::Alive);
        assert!(base.superseded_by(&member(2, 0, MemberStatus::Alive)));
        assert!(!base.superseded_by(&member(0, 99, MemberStatus::Left)));
        assert!(base.superseded_by(&member(1, 0, MemberStatus::Left)));
        assert!(base.superseded_by(&member(1, 6, MemberStatus::Alive)));
        assert!(!base.superseded_by(&member(1, 5, MemberStatus::Alive)));
        let left = member(1, 5, MemberStatus::Left);
        assert!(!left.superseded_by(&member(1, 99, MemberStatus::Alive)));
    }

    #[test]
    fn ads_from_handshake_share_the_fingerprints() {
        let info = HandshakeInfo {
            protocol: 1,
            interface_fp: 0xFEED,
            rules_fp: 0xBEEF,
        };
        let ad = ObjectAd::from_handshake("calc", &info, "127.0.0.1:80".parse().unwrap())
            .in_zone(3)
            .with_tier(1);
        assert_eq!(ad.interface_fp, 0xFEED);
        assert_eq!(ad.rules_fp, 0xBEEF);
        assert_eq!(ad.zone, 3);
        assert_eq!(ad.latency_tier, 1);
    }
}
