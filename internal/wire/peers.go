package wire

import (
	"sort"
	"strconv"
)

// Consistent-hash broker sharding (DESIGN.md §16). A fleet can run several
// brokers; each client is owned by exactly one of them under rendezvous
// (highest-random-weight) hashing of the client's identity over the peer
// ring. Clients are expected to connect to their owner, but a mis-hashed
// connect still works: the receiving broker forwards the bid or award to
// the owner over a lazily dialed peer lane and relays the answer — and the
// eventual settlement — back. Rendezvous hashing means adding or removing
// a broker only moves the clients that hashed to it; everyone else keeps
// their owner.

// fnv64a hashes a ring id and a client key together (FNV-1a, with a
// separator byte so "ab"+"c" and "a"+"bc" differ).
func fnv64a(id, key string) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime
	}
	h ^= 0xff
	h *= prime
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	return h
}

// mix64 finalizes a hash (the 64-bit murmur3 finalizer): FNV-1a diffuses
// byte differences upward but never back down, so without this the
// highest-hashing ring id tends to win for every key.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// rendezvousOwner picks key's owner from ids: the id with the highest
// combined hash wins, ties broken toward the lexically smaller id so every
// broker agrees whatever order it learned the ring in.
func rendezvousOwner(ids []string, key string) string {
	owner, best := "", uint64(0)
	for _, id := range ids {
		h := mix64(fnv64a(id, key))
		if owner == "" || h > best || (h == best && id < owner) {
			owner, best = id, h
		}
	}
	return owner
}

// SetPeers installs the broker's peer ring: selfID is this broker's own
// ring identity (the address peers dial it at) and peers are the other
// brokers' addresses. Exported so a test harness can wire brokers together
// after they have all picked their listen addresses. Safe to call while
// serving; bids in flight use whichever ring they started with.
func (b *BrokerServer) SetPeers(selfID string, peers []string) {
	ring := make([]string, 0, len(peers)+1)
	ring = append(ring, selfID)
	for _, p := range peers {
		if p != "" && p != selfID {
			ring = append(ring, p)
		}
	}
	sort.Strings(ring)
	b.peerMu.Lock()
	b.selfID = selfID
	b.ring = ring
	b.peerMu.Unlock()
}

// clientKey is the sharding key for one envelope: the client's workload
// identity when the bid carries one, else the task ID — so each client's
// whole session lands on one broker, and label-less traffic still spreads.
// Bids and awards for the same task carry the same labels, so both hash to
// the same owner.
func clientKey(e Envelope) string {
	if e.Cohort != "" || e.Client != 0 {
		return e.Cohort + "/" + strconv.Itoa(e.Client)
	}
	return "task/" + strconv.FormatUint(uint64(e.TaskID), 10)
}

// peerOwner names the peer that owns env's client, or "" when this broker
// should handle it itself: it is the owner, there is no ring, or the
// envelope was already forwarded once (the loop guard — ring disagreement
// between brokers must not bounce an envelope forever).
func (b *BrokerServer) peerOwner(env Envelope) string {
	if env.Forwarded {
		return ""
	}
	b.peerMu.Lock()
	ring, self := b.ring, b.selfID
	b.peerMu.Unlock()
	if len(ring) < 2 {
		return ""
	}
	owner := rendezvousOwner(ring, clientKey(env))
	if owner == self {
		return ""
	}
	return owner
}

// peerLane returns the lazily dialed connection to a peer broker. Peer
// lanes negotiate the same codec as site lanes and relay settlements the
// peer pushes for tasks this broker forwarded to it.
func (b *BrokerServer) peerLane(peer string) (*SiteClient, error) {
	b.peerMu.Lock()
	lane := b.peerLanes[peer]
	b.peerMu.Unlock()
	if lane != nil {
		return lane, nil
	}
	sc, err := DialConfig(peer, b.cfg.laneConfig())
	if err != nil {
		return nil, err
	}
	sc.SetOnSettled(b.relaySettlement)
	b.peerMu.Lock()
	if existing := b.peerLanes[peer]; existing != nil {
		b.peerMu.Unlock()
		_ = sc.Close()
		return existing, nil
	}
	b.peerLanes[peer] = sc
	b.peerMu.Unlock()
	return sc, nil
}

// forwardEnvelope ships env to a peer broker with the Forwarded loop guard
// set and returns the peer's reply, retrying once across a redial on a
// transient failure — the site-call retry path, counted the same way.
func (b *BrokerServer) forwardEnvelope(peer string, env Envelope) (Envelope, error) {
	lane, err := b.peerLane(peer)
	if err != nil {
		return Envelope{}, err
	}
	env.Forwarded = true
	var reply Envelope
	err = callWithRetry(lane, 1, b.cfg.backoff(), b.eo, nil, func() (err error) {
		reply, err = lane.roundTrip(env)
		return err
	})
	if err != nil {
		return Envelope{}, err
	}
	b.m.peerForwarded.With(peer).Inc()
	return reply, nil
}

// forwardBid sends a mis-hashed bid to its owning broker. If the owner is
// unreachable the bid is brokered locally instead — a down peer should
// degrade sharding, not availability.
func (b *BrokerServer) forwardBid(peer string, env Envelope) Envelope {
	reply, err := b.forwardEnvelope(peer, env)
	if err != nil {
		b.eo.log.Warn("peer forward failed; brokering locally", "peer", peer, "task", env.TaskID, "err", err.Error())
		return b.handleBid(env)
	}
	return reply
}

// routeAward sends an award where its proposal lives: locally when this
// broker holds the standing proposal (the usual case, and the fallback
// case after a peer-down local bid), else to the owning peer.
func (b *BrokerServer) routeAward(env Envelope, sc *serverConn) Envelope {
	b.mu.Lock()
	_, local := b.chosen[env.TaskID]
	b.mu.Unlock()
	if local {
		return b.handleAward(env, sc)
	}
	if peer := b.peerOwner(env); peer != "" {
		return b.forwardAward(peer, env, sc)
	}
	return b.handleAward(env, sc)
}

// forwardAward relays an award to the owning peer and registers the local
// client as the settlement owner. The owner registration happens before
// the forward leaves: a short task's settlement push can race the award
// reply back through the peer lane, and a push that finds no owner parks.
func (b *BrokerServer) forwardAward(peer string, env Envelope, sc *serverConn) Envelope {
	id := env.TaskID
	b.mu.Lock()
	b.owners[id] = sc
	b.fwdOwner[id] = peer
	b.mu.Unlock()
	reply, err := b.forwardEnvelope(peer, env)
	if err != nil {
		b.mu.Lock()
		delete(b.owners, id)
		delete(b.fwdOwner, id)
		b.mu.Unlock()
		b.eo.failed.Inc()
		return Envelope{Type: TypeError, TaskID: id, Reason: err.Error()}
	}
	if reply.Type != TypeContract {
		b.mu.Lock()
		// The settlement may have raced the reply and consumed the owner
		// entry; only clean up a registration that is still standing.
		if b.fwdOwner[id] == peer {
			delete(b.owners, id)
			delete(b.fwdOwner, id)
		}
		b.mu.Unlock()
	}
	return reply
}

// queryPeers extends an unresolved contract query across the peer ring:
// the peer a forwarded award went to first, then the rest. A peer that
// reports the contract open re-adopts the querying connection as the
// settlement owner on this broker, re-establishing the relay path.
func (b *BrokerServer) queryPeers(env Envelope, sc *serverConn, standing Envelope) Envelope {
	id := env.TaskID
	b.mu.Lock()
	first := b.fwdOwner[id]
	b.mu.Unlock()
	b.peerMu.Lock()
	self := b.selfID
	peers := make([]string, 0, len(b.ring))
	if first != "" {
		peers = append(peers, first)
	}
	for _, p := range b.ring {
		if p != self && p != first {
			peers = append(peers, p)
		}
	}
	b.peerMu.Unlock()
	for _, peer := range peers {
		reply, err := b.forwardEnvelope(peer, env)
		if err != nil || reply.Type != TypeStatus ||
			reply.ContractState == ContractUnknown || reply.ContractState == "" {
			continue
		}
		if reply.ContractState == ContractOpen {
			b.mu.Lock()
			b.owners[id] = sc
			b.fwdOwner[id] = peer
			b.mu.Unlock()
		}
		return reply
	}
	return standing
}
