//! Rendezvous (highest-random-weight) hashing over the fleet membership.
//!
//! Every daemon in a fleet builds the same [`PeerRing`] from the same member
//! list, so all of them agree — without any coordination — on which member
//! *owns* a given compile key `(graph_hash, config_hash)`. The owner is the
//! member with the highest mixed score for the key; when a member drops out
//! only the keys it owned move, everything else stays put (the classic HRW
//! property).
//!
//! Members are identified by their advertised `host:port` strings. The local
//! daemon is always a member; [`PeerRing::owner_of`] answers [`Owner::Local`]
//! when the local daemon wins the rendezvous and [`Owner::Peer`] otherwise.

/// Who owns a compile key according to the rendezvous hash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Owner {
    /// The local daemon owns the key: compute (and cache) it here.
    Local,
    /// The named peer owns the key: forward the request there.
    Peer(String),
}

/// Deterministic rendezvous-hash ring over `self ∪ peers`.
#[derive(Clone, Debug)]
pub struct PeerRing {
    /// Advertised address of the local daemon (as peers would dial it).
    advertise: String,
    /// Seed derived from the local advertise address.
    self_seed: u64,
    /// `(address, seed)` per remote peer; insertion order is irrelevant to
    /// ownership because scoring is per-member.
    peers: Vec<(String, u64)>,
}

/// FNV-1a over a byte string; stable basis for member seeds (and the
/// server's registry-memo keys).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// splitmix64 finalizer; decorrelates the member seed from the key bits.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Score of one member for one key. Higher wins.
fn score(seed: u64, key: (u64, u64)) -> u64 {
    mix(seed ^ mix(key.0 ^ mix(key.1)))
}

impl PeerRing {
    /// Build a ring for a daemon advertised as `advertise` with the given
    /// remote peer addresses. Duplicate addresses (including the local one)
    /// are dropped so a sloppy `--peer` list cannot double-weight a member.
    pub fn new<S: AsRef<str>>(advertise: &str, peers: &[S]) -> Self {
        let advertise = advertise.to_string();
        let mut seen = vec![advertise.clone()];
        let mut entries = Vec::new();
        for p in peers {
            let p = p.as_ref();
            if seen.iter().any(|s| s == p) {
                continue;
            }
            seen.push(p.to_string());
            entries.push((p.to_string(), fnv1a(p.as_bytes())));
        }
        PeerRing {
            self_seed: fnv1a(advertise.as_bytes()),
            advertise,
            peers: entries,
        }
    }

    /// The advertised address of the local daemon.
    pub fn advertise(&self) -> &str {
        &self.advertise
    }

    /// Remote peer addresses in the ring (excludes the local daemon).
    pub fn peer_addrs(&self) -> Vec<String> {
        self.peers.iter().map(|(a, _)| a.clone()).collect()
    }

    /// Number of members including the local daemon.
    pub fn len(&self) -> usize {
        self.peers.len() + 1
    }

    /// True when the ring has no remote peers (single-daemon degenerate case).
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Rendezvous winner for `key` over all members. Ties break toward the
    /// lexicographically smaller address so every member agrees even in the
    /// astronomically unlikely score collision.
    pub fn owner_of(&self, key: (u64, u64)) -> Owner {
        let mut best_addr = self.advertise.as_str();
        let mut best_score = score(self.self_seed, key);
        for (addr, seed) in &self.peers {
            let s = score(*seed, key);
            if s > best_score || (s == best_score && addr.as_str() < best_addr) {
                best_addr = addr;
                best_score = s;
            }
        }
        if best_addr == self.advertise {
            Owner::Local
        } else {
            Owner::Peer(best_addr.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u64) -> impl Iterator<Item = (u64, u64)> {
        (0..n).map(|i| (mix(i), mix(i ^ 0xdead_beef)))
    }

    #[test]
    fn single_member_owns_everything() {
        let ring = PeerRing::new("127.0.0.1:7171", &[] as &[&str]);
        assert!(ring.is_empty());
        assert_eq!(ring.len(), 1);
        for k in keys(64) {
            assert_eq!(ring.owner_of(k), Owner::Local);
        }
    }

    #[test]
    fn membership_order_is_irrelevant() {
        let a = PeerRing::new("h:1", &["h:2", "h:3"]);
        let b = PeerRing::new("h:1", &["h:3", "h:2"]);
        for k in keys(256) {
            assert_eq!(a.owner_of(k), b.owner_of(k));
        }
    }

    #[test]
    fn all_members_agree_on_ownership() {
        let addrs = ["h:1", "h:2", "h:3"];
        let rings: Vec<PeerRing> = addrs
            .iter()
            .map(|me| {
                let others: Vec<&str> = addrs.iter().filter(|a| *a != me).copied().collect();
                PeerRing::new(me, &others)
            })
            .collect();
        for k in keys(256) {
            let resolved: Vec<String> = rings
                .iter()
                .map(|r| match r.owner_of(k) {
                    Owner::Local => r.advertise().to_string(),
                    Owner::Peer(p) => p,
                })
                .collect();
            assert_eq!(resolved[0], resolved[1], "key {k:?}");
            assert_eq!(resolved[0], resolved[2], "key {k:?}");
        }
    }

    #[test]
    fn ownership_spreads_over_members() {
        let ring = PeerRing::new("h:1", &["h:2", "h:3"]);
        let mut local = 0usize;
        let total = 3000usize;
        let mut by_peer = std::collections::BTreeMap::new();
        for k in keys(total as u64) {
            match ring.owner_of(k) {
                Owner::Local => local += 1,
                Owner::Peer(p) => *by_peer.entry(p).or_insert(0usize) += 1,
            }
        }
        // Perfect balance is 1/3 each; accept anything within 2x of fair.
        let fair = total / 3;
        assert!(local > fair / 2 && local < fair * 2, "local={local}");
        for (p, n) in by_peer {
            assert!(n > fair / 2 && n < fair * 2, "{p}={n}");
        }
    }

    #[test]
    fn removing_a_member_only_moves_its_keys() {
        let full = PeerRing::new("h:1", &["h:2", "h:3"]);
        let shrunk = PeerRing::new("h:1", &["h:3"]);
        for k in keys(512) {
            match full.owner_of(k) {
                Owner::Peer(p) if p == "h:2" => {} // may move anywhere
                other => assert_eq!(other, shrunk.owner_of(k), "key {k:?}"),
            }
        }
    }

    #[test]
    fn duplicate_peers_are_dropped() {
        let ring = PeerRing::new("h:1", &["h:2", "h:2", "h:1"]);
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.peer_addrs(), vec!["h:2".to_string()]);
    }
}
