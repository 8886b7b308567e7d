// The distributed name directory: names hash to a consistent-hash
// *home node* (one server of the complex) that holds the authoritative
// record, with one replica on the next distinct node of the ring for
// availability. CheckIn installs the record at the home node (one
// control round trip from the origin), LookUp asks the home node
// directly (one control round trip on a cold miss — O(1) in the number
// of hosts, where the bootstrap registry broadcast to every peer), and
// the home node pushes invalidations to every host known to cache a
// record when it is replaced or its port dies, so a replaced service is
// never resolved stale past one round trip.
package netmsg

import (
	"sort"

	"repro/internal/ipc"
	"repro/internal/machine"
)

// ringVnodes is the number of virtual ring points per host; enough to
// spread names evenly across a 64-host complex without making ring
// rebuilds (attach/detach only) expensive.
const ringVnodes = 16

// negWaitMax bounds the per-home count of names with recorded negative
// waiters (hosts that asked for a name that did not exist and cached
// the miss). Past the cap a miss is simply not tracked and the asker's
// negative entry expires by TTL instead of by invalidation.
const negWaitMax = 1024

// hash64 is FNV-1a, the ring's and the names' hash.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// ringPoint is one virtual node of the consistent-hash ring.
type ringPoint struct {
	hash uint64
	host machine.HostID
}

// rebuildRingLocked recomputes the ring from the attached servers.
// Caller holds n.mu.
func (n *Network) rebuildRingLocked() {
	n.ring = n.ring[:0]
	var b [24]byte
	for h := range n.servers {
		for v := 0; v < ringVnodes; v++ {
			// A tiny stack-built key: "r<host>-<vnode>" without fmt.
			k := append(b[:0], 'r')
			k = appendInt(k, int(h))
			k = append(k, '-')
			k = appendInt(k, v)
			n.ring = append(n.ring, ringPoint{hash: hash64(string(k)), host: h})
		}
	}
	sort.Slice(n.ring, func(i, j int) bool { return n.ring[i].hash < n.ring[j].hash })
}

func appendInt(b []byte, v int) []byte {
	if v == 0 {
		return append(b, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}

// homeFor maps a name to its home node and replica (the next distinct
// host clockwise on the ring). With a single attached host the replica
// equals the home; ok is false when no server is attached.
func (n *Network) homeFor(name string) (home, replica machine.HostID, ok bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if len(n.ring) == 0 {
		return 0, 0, false
	}
	h := hash64(name)
	i := sort.Search(len(n.ring), func(i int) bool { return n.ring[i].hash >= h })
	if i == len(n.ring) {
		i = 0
	}
	home = n.ring[i].host
	replica = home
	for j := 1; j < len(n.ring); j++ {
		if p := n.ring[(i+j)%len(n.ring)].host; p != home {
			replica = p
			break
		}
	}
	return home, replica, true
}

// rebalance runs after ring membership changes: every origin re-installs
// its owned records at the (possibly new) home node, then every server
// prunes directory entries that no longer hash to it. Records briefly
// exist at both the old and new home, never at neither.
func (n *Network) rebalance() {
	n.mu.RLock()
	servers := make([]*Server, 0, len(n.servers))
	for _, s := range n.servers {
		servers = append(servers, s)
	}
	n.mu.RUnlock()
	sort.Slice(servers, func(i, j int) bool { return servers[i].host < servers[j].host })
	for _, s := range servers {
		s.reinstallOwned()
	}
	for _, s := range servers {
		s.pruneDir()
	}
}

// dirEntry is one record of a host's slice of the distributed
// directory: the home (unproxied) service port, the host whose server
// installed it, and the set of hosts known to hold a cached copy — the
// invalidation fan-out on replacement or death. Like the origin's
// records the reference is weak: no counting send right is held, so the
// directory never keeps a checked-in service's no-senders from firing.
type dirEntry struct {
	port   *ipc.Port
	origin machine.HostID
	cancel func() // death-watch cancellation
	// interest holds every host that fetched (and so cached) this
	// record; invalidations go exactly there, not to all peers.
	interest map[machine.HostID]bool
}

// chargeRoundTrip accounts one control request+reply pair between this
// server and dst (the unit a registry install or home-node lookup
// costs).
func (s *Server) chargeRoundTrip(dst machine.HostID) {
	s.peer(dst).met.ControlMsgs.Add(2)
	if s.topo != nil {
		s.topo.ChargeMessage(s.host, dst, controlBytes)
		s.topo.ChargeMessage(dst, s.host, controlBytes)
	}
}

// chargeOneWay accounts a single control message toward dst
// (replica updates, invalidation pushes).
func (s *Server) chargeOneWay(dst machine.HostID) {
	s.peer(dst).met.ControlMsgs.Inc()
	if s.topo != nil {
		s.topo.ChargeMessage(s.host, dst, controlBytes)
	}
}

// installDirectory publishes an origin record at the name's home node —
// one control round trip unless this server is the home itself — and
// the home pushes it on to the replica.
func (s *Server) installDirectory(name string, port *ipc.Port) {
	home, _, ok := s.net.homeFor(name)
	if !ok {
		return
	}
	hs := s.net.serverFor(home)
	if hs == nil {
		return
	}
	if hs != s {
		s.chargeRoundTrip(home)
	}
	hs.dirInstall(name, port, s.host)
}

// dirInstall records (or replaces) a name at this server, which is the
// name's home node (or, via replicaInstall, its replica). Replacement
// pushes an invalidation to every host caching the old record — the
// old origin included, so its local slice never serves the replaced
// port — and a drop notice to every host holding a negative entry for
// the name. All pushes run after the record is published, so a lookup
// racing the install can only ever see the new port.
func (s *Server) dirInstall(name string, port *ipc.Port, origin machine.HostID) {
	s.dirSet(name, port, origin, true)
}

// replicaInstall is dirInstall on the replica host: identical record
// handling, but no onward forwarding (the home drives the replica, the
// replica drives nothing).
func (s *Server) replicaInstall(name string, port *ipc.Port, origin machine.HostID) {
	s.dirSet(name, port, origin, false)
}

func (s *Server) dirSet(name string, port *ipc.Port, origin machine.HostID, forward bool) {
	// Arm the death watch before publishing (and before taking s.mu: an
	// already-dead port fires the callback synchronously, and that
	// callback takes s.mu).
	cancel := port.WatchDeath(func() { s.dirDrop(name, port) })
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		cancel()
		return
	}
	old := s.dir[name]
	if old != nil && old.port == port {
		// Re-install of the identical port: refresh the origin, keep the
		// existing watch and interest set.
		old.origin = origin
		s.mu.Unlock()
		cancel()
		if forward {
			s.updateReplica(name, port, origin)
		}
		return
	}
	s.dir[name] = &dirEntry{port: port, origin: origin, cancel: cancel,
		interest: make(map[machine.HostID]bool)}
	if old == nil {
		s.met.DirEntries.Add(1)
	}
	negWait := s.negWait[name]
	delete(s.negWait, name)
	// This host's own negative entry is tracked nowhere (self-asks never
	// register as waiters), so clear it here.
	delete(s.neg, name)
	s.mu.Unlock()
	if port.Dead() {
		// Death raced the publish; the pre-armed watch already ran (as a
		// no-op if it beat the map insert), so drop explicitly.
		s.dirDrop(name, port)
	}
	if old != nil {
		old.cancel()
		s.pushInvalidations(name, old, origin)
	}
	for h := range negWait {
		s.pushNegDrop(h, name)
	}
	if forward {
		s.updateReplica(name, port, origin)
	}
}

// pushInvalidations tells every host caching the replaced (or dead)
// record to drop it: the old record's interest set plus its origin.
// One control message each — bounded by the hosts that actually hold a
// copy, never a broadcast.
func (s *Server) pushInvalidations(name string, old *dirEntry, newOrigin machine.HostID) {
	targets := make(map[machine.HostID]bool, len(old.interest)+1)
	for h := range old.interest {
		targets[h] = true
	}
	// The old origin's local slice (Server.names) serves lookups with
	// zero messages; a replacement from another host must reach it too.
	if old.origin != newOrigin {
		targets[old.origin] = true
	}
	for h := range targets {
		if h == s.host {
			s.invalidateLocal(name, old.port)
			continue
		}
		ts := s.net.serverFor(h)
		if ts == nil {
			continue
		}
		s.chargeOneWay(h)
		s.met.InvalidationsSent.Inc()
		ts.invalidateLocal(name, old.port)
	}
	// Our own slices can hold the stale record as well (this host may
	// have looked the name up before becoming its home).
	if !targets[s.host] {
		s.invalidateLocal(name, old.port)
	}
}

// pushNegDrop tells one host to forget a cached negative result — the
// name exists now.
func (s *Server) pushNegDrop(h machine.HostID, name string) {
	if h == s.host {
		s.dropNegative(name)
		return
	}
	ts := s.net.serverFor(h)
	if ts == nil {
		return
	}
	s.chargeOneWay(h)
	s.met.InvalidationsSent.Inc()
	ts.dropNegative(name)
}

// updateReplica forwards the current record (or its removal, port nil)
// to the name's replica node: one control message from the home. The
// home is the single writer of the replica, so replacement ordering is
// the home's serialization order.
func (s *Server) updateReplica(name string, port *ipc.Port, origin machine.HostID) {
	home, replica, ok := s.net.homeFor(name)
	if !ok || home != s.host || replica == s.host {
		return
	}
	rs := s.net.serverFor(replica)
	if rs == nil {
		return
	}
	s.chargeOneWay(replica)
	if port == nil {
		rs.replicaDrop(name)
	} else {
		rs.replicaInstall(name, port, origin)
	}
}

// dirDrop removes a record whose port died (death watch) or whose
// origin uninstalled it (rehoming), invalidating every cached copy. A
// newer record under the same name is left untouched.
func (s *Server) dirDrop(name string, port *ipc.Port) {
	s.mu.Lock()
	e := s.dir[name]
	if e == nil || e.port != port {
		s.mu.Unlock()
		return
	}
	delete(s.dir, name)
	s.met.DirEntries.Add(-1)
	s.mu.Unlock()
	e.cancel()
	s.pushInvalidations(name, e, e.origin)
	home, _, ok := s.net.homeFor(name)
	if ok && home == s.host {
		s.updateReplica(name, nil, 0)
	}
}

// replicaDrop removes a replica record (home-driven; no onward pushes
// beyond the cached-copy invalidations).
func (s *Server) replicaDrop(name string) {
	s.mu.Lock()
	e := s.dir[name]
	if e == nil {
		s.mu.Unlock()
		return
	}
	delete(s.dir, name)
	s.met.DirEntries.Add(-1)
	s.mu.Unlock()
	e.cancel()
	s.pushInvalidations(name, e, e.origin)
}

// dirLookup answers a (possibly remote) lookup from this server's
// directory slice, registering the asking host's interest so a later
// replacement or death reaches its cache as an invalidation. Dead
// records answer nil (the death watch prunes them).
func (s *Server) dirLookup(name string, from machine.HostID) *ipc.Port {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return nil
	}
	if e, ok := s.dir[name]; ok {
		if e.port.Dead() {
			return nil
		}
		if from != s.host {
			e.interest[from] = true
		}
		return e.port
	}
	if from != s.host {
		w := s.negWait[name]
		if w == nil && len(s.negWait) < negWaitMax {
			w = make(map[machine.HostID]bool, 2)
			s.negWait[name] = w
		}
		if w != nil {
			w[from] = true
		}
	}
	return nil
}

// remoteLookup resolves a name not known locally by asking its home
// node — one control round trip, independent of how many hosts the
// complex has. When the home node has no server (detached, stopped),
// the replica answers instead; a live home's miss is authoritative and
// is not retried at the replica.
func (s *Server) remoteLookup(name string) *ipc.Port {
	home, replica, ok := s.net.homeFor(name)
	if !ok {
		return nil
	}
	target := home
	if ts := s.net.serverFor(home); ts == nil || ts == s {
		if ts == s {
			// We are the home: the local directory check already ran,
			// and its miss is authoritative.
			return nil
		}
		target = replica
	}
	if target == s.host {
		return nil
	}
	ts := s.net.serverFor(target)
	if ts == nil {
		return nil
	}
	s.met.HomeLookups.Inc()
	s.chargeRoundTrip(target)
	return ts.dirLookup(name, s.host)
}

// invalidateLocal drops this host's cached copies of a replaced or dead
// record: the TTL cache entry and, when this host originated the
// replaced record, the origin slice entry. old pins the invalidation to
// the record it was issued for, so a racing re-lookup of the NEW record
// is never clobbered.
func (s *Server) invalidateLocal(name string, old *ipc.Port) {
	s.mu.Lock()
	if e, ok := s.cache[name]; ok && e.port == old {
		delete(s.cache, name)
		defer e.cancel()
	}
	if p, ok := s.names[name]; ok && p == old {
		delete(s.names, name)
	}
	s.met.InvalidationsRecv.Inc()
	s.mu.Unlock()
}

// reinstallOwned re-publishes every record this server originated to
// its current home node — the origin half of a ring-membership change.
func (s *Server) reinstallOwned() {
	type rec struct {
		name string
		port *ipc.Port
	}
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	owned := make([]rec, 0, len(s.names))
	for name, p := range s.names {
		if p.Dead() {
			delete(s.names, name)
			continue
		}
		owned = append(owned, rec{name, p})
	}
	s.mu.Unlock()
	for _, o := range owned {
		s.installDirectory(o.name, o.port)
	}
}

// pruneDir drops directory records that no longer hash to this host
// (the old-home half of a ring change). No invalidations: the service
// itself did not change, and interest re-registers at the new home when
// the cached copies expire.
func (s *Server) pruneDir() {
	var cancels []func()
	s.mu.Lock()
	for name, e := range s.dir {
		home, replica, ok := s.net.homeFor(name)
		if !ok || home == s.host || replica == s.host {
			continue
		}
		delete(s.dir, name)
		s.met.DirEntries.Add(-1)
		cancels = append(cancels, e.cancel)
	}
	s.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}
