// Package netmsg is the network message server of the reproduction: the
// user-level service that makes Mach IPC location-transparent across
// hosts, in the style of the netmsgserver the paper leans on ("port
// ... can be used by processes on different machines through
// user-state network message servers", §3.2).
//
// One Server runs per kernel. When a send right to a port homed on
// another host is needed locally, the server materializes a local
// *proxy port*: a kernel-held port whose queue is drained by a
// store-and-forward thread that re-sends every message toward the home
// port over the complex's interconnect, charged to the
// machine.Topology exactly like any other cross-host traffic. The
// translation is recursive:
//
//   - a reply port embedded in a forwarded message becomes a reverse
//     proxy on the destination host, so msg_rpc round trips work
//     unmodified;
//   - send rights carried in message bodies are re-proxied on the
//     destination host (or unwrapped, when the right is a proxy whose
//     home port lives there);
//   - receive rights travel as the real port — moving a receive right
//     moves the queue itself, rehoming the port when it is inserted. A
//     receive right that is a member of a port set leaves the set at
//     extraction time (the set is a property of the old space's
//     receive point, not of the port): the queue migrates intact, the
//     old set keeps its other members, and the new holder is free to
//     move the right into a set of its own;
//   - out-of-line regions ride along untouched and move through the
//     kern layer's existing cross-host copy / copy-on-reference
//     machinery when the receiver maps them.
//
// Each server also runs the bootstrap name registry (CheckIn / LookUp
// over internal/rpc): a service checked in on any host can be looked
// up from every host, the result being a local proxy right. This is
// what closes the paper's duality across the network: an unmodified
// client of any port-based service works against a server on another
// host, memory objects included.
package netmsg

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ipc"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/rpc"
)

// controlBytes approximates one netmsg-to-netmsg control message (a
// third-party proxy registration, a registry lookup or push, an idle
// batch of sender-count returns), charged to the interconnect. The
// distributed GC sends one only when no data message is crossing the
// same way to carry its bookkeeping.
const controlBytes = 32

// msgProxyRetire is the private sentinel a proxy's no-senders watch
// enqueues behind all in-flight traffic; the forwarding thread commits
// (or aborts) the retirement when the sentinel reaches the queue head,
// so no message sent before the last right died can be lost.
const msgProxyRetire ipc.MsgID = -201

// proxyLinger is the wall-clock grace a zero-reference proxy lingers
// before its retire sentinel is queued. Request/reply traffic retires
// and re-creates a reply port's reverse proxy between every call
// without it — a create+retire churn of a forwarding thread and a
// sender-count return per RPC; with the linger, back-to-back calls
// reuse a warm proxy and only a genuinely idle one is collected. The
// same grace bounds how long a sender-count return waits for a message
// to ride before it is flushed on its own.
//
// The linger is deliberately wall-clock, not virtual: the virtual
// clock only advances when traffic is charged, so a virtual-time
// linger on an idle proxy would never expire (nothing schedules on the
// virtual clock — the lookup cache's TTL works because it is checked
// lazily on the next lookup). The cost is that WHEN a retirement's
// control message lands on the topology is timing-dependent; protocol
// correctness and steady-state experiment numbers are not.
const proxyLinger = 10 * time.Millisecond

// Stats counts one message server's proxy and registry activity — the
// observable surface of the distributed garbage collection. It is a
// point-in-time view read out of the obs registry (see Server.Stats);
// the counters themselves live there as hostN.netmsg.* metrics.
type Stats struct {
	// ProxiesCreated counts proxy ports materialized on this host.
	ProxiesCreated int64
	// ProxiesRetired counts proxies reclaimed by the no-senders GC:
	// the last local send reference went away, the proxy drained and
	// retired itself, and its one logical send right at home was
	// returned (riding the next message to the home host, or an idle
	// batch of returns in one control message).
	ProxiesRetired int64
	// ProxiesDied counts proxies torn down by home-port death or
	// server stop rather than by GC.
	ProxiesDied int64
	// ActiveProxies is the number of live proxies on this host now.
	ActiveProxies int
	// LookupCacheHits counts registry lookups answered from the TTL
	// cache instead of a control round trip to the home node.
	LookupCacheHits int64
	// HomeLookups counts remote lookups resolved by one control round
	// trip to the name's home (or replica) node — the O(1) path that
	// replaced the peer broadcast.
	HomeLookups int64
	// NegCacheHits counts lookup misses answered by the short-TTL
	// negative cache instead of re-asking the home node.
	NegCacheHits int64
	// InvalidationsSent / InvalidationsRecv count directory
	// invalidation pushes (record replaced or died) between hosts.
	InvalidationsSent int64
	InvalidationsRecv int64
	// DirEntries is this host's live slice of the distributed
	// directory (home records plus replicas).
	DirEntries int
}

// Network is the set of message servers of one machine complex — the
// rendezvous the per-kernel servers use to reach each other, standing
// in for the datagram transport under real netmsgservers. Kernels that
// share a Topology should share a Network (mach.Complex wires this).
type Network struct {
	mu      sync.RWMutex
	servers map[machine.HostID]*Server
	// realOf maps every live proxy port (on any host) to its home
	// port, so rights that travel back toward home are unwrapped
	// instead of proxied in circles.
	realOf map[*ipc.Port]*ipc.Port
	// ring is the consistent-hash ring of the distributed name
	// directory (ringVnodes points per attached host, sorted by hash);
	// rebuilt on attach/detach, read on every name-to-home mapping.
	ring []ringPoint
}

// NewNetwork creates an empty message-server network.
func NewNetwork() *Network {
	return &Network{
		servers: make(map[machine.HostID]*Server),
		realOf:  make(map[*ipc.Port]*ipc.Port),
	}
}

func (n *Network) attach(s *Server) error {
	n.mu.Lock()
	if _, ok := n.servers[s.host]; ok {
		n.mu.Unlock()
		return fmt.Errorf("netmsg: host %d already has a message server", s.host)
	}
	n.servers[s.host] = s
	n.rebuildRingLocked()
	n.mu.Unlock()
	// Ring membership changed: origins re-home their records (outside
	// the network lock — rebalancing is charged control traffic).
	n.rebalance()
	return nil
}

func (n *Network) detach(s *Server) {
	n.mu.Lock()
	changed := false
	if n.servers[s.host] == s {
		delete(n.servers, s.host)
		n.rebuildRingLocked()
		changed = true
	}
	n.mu.Unlock()
	if changed {
		n.rebalance()
	}
}

// serverFor returns the message server of a host, or nil.
func (n *Network) serverFor(h machine.HostID) *Server {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.servers[h]
}

// unproxy resolves a port reference to its home port: proxies (from any
// host) map to the port they forward to, everything else maps to
// itself.
func (n *Network) unproxy(p *ipc.Port) *ipc.Port {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if r, ok := n.realOf[p]; ok {
		return r
	}
	return p
}

func (n *Network) registerProxy(proxy, home *ipc.Port) {
	n.mu.Lock()
	n.realOf[proxy] = home
	n.mu.Unlock()
}

func (n *Network) forgetProxy(proxy *ipc.Port) {
	n.mu.Lock()
	delete(n.realOf, proxy)
	n.mu.Unlock()
}

// Server is one host's network message server: the proxy-port factory
// and forwarding threads, plus the host's slice of the name registry.
type Server struct {
	host  machine.HostID
	topo  *machine.Topology
	net   *Network
	space *ipc.Space
	srv   *rpc.Server

	mu sync.Mutex
	// proxies dedups proxy ports per home port, which both bounds the
	// forwarding threads and keeps a remote port's identity stable on
	// this host (every local holder names the same proxy). Every proxy
	// handout (proxyFor) pins the proxy with a kernel send reference
	// under this lock; retirement re-checks the reference count under
	// the same lock, which is what makes retire-vs-handout race free.
	proxies map[*ipc.Port]*ipc.Port
	// owed maps every proxy whose forwarder has not finished to its
	// home port, where the proxy still holds its one logical send
	// right (a retiring proxy has left proxies but is still owed).
	// Whoever removes an entry, the forwarder's exit or Stop, does the
	// proxy's accounting and returns its right, so a forwarder that
	// outlives Stop touches neither counters nor home ports.
	owed map[*ipc.Port]*ipc.Port
	// names is this host's slice of the registry: locally checked-in
	// services by name, as home (unproxied) ports. The references are
	// weak — the registry holds no counting send right, so a checked-in
	// service still learns when its last real client is gone; dead
	// entries are pruned on lookup.
	names map[string]*ipc.Port
	// cache holds remote lookup results for a short virtual-time TTL,
	// each invalidated early by a death watch on the cached port and by
	// home-node invalidation pushes on replacement.
	cache map[string]*cacheEntry
	// dir is this host's slice of the distributed directory: records
	// whose name hashes here (home) or to the next ring node (replica).
	dir map[string]*dirEntry
	// neg caches authoritative misses for a short virtual TTL so
	// repeated lookups of an absent name cost zero control messages;
	// negWait records, per missing name this host is home for, the
	// hosts holding such a negative entry — the install-time fan-out
	// that makes a check-in visible immediately, not at TTL expiry.
	neg     map[string]time.Duration
	negWait map[string]map[machine.HostID]bool
	stopped bool
	// met holds the host's netmsg registry metrics (the stats live
	// there, not in a private struct: readers load atomics instead of
	// racing the forwarder goroutines); peers holds the per-peer state
	// resolved so far, guarded by mu. base is the registry state at
	// construction — the hostN.netmsg.* metrics are process-cumulative,
	// while Stats() keeps its per-server-lifetime contract by
	// subtracting it.
	met   *obs.NetmsgMetrics
	base  Stats
	peers map[machine.HostID]*peerState
	// settling counts work taken off the books under mu and finished
	// outside it (a forwarder's exit, a batch of sender-count returns
	// being dropped); Stop waits for it.
	settling sync.WaitGroup
	// linger overrides proxyLinger (white-box tests set 0 for a
	// synchronous retire sentinel and a synchronous, individually
	// charged sender-count return). Set before any proxy exists.
	linger time.Duration
}

// peerState is one server's state toward one remote host: its traffic
// counters and the sender-count returns waiting to ride the next
// message that crosses there.
type peerState struct {
	met *obs.NetmsgPeerMetrics
	// pending mirrors len(returns), so deliver's common case — nothing
	// owed to this peer — is one atomic load and no lock.
	pending atomic.Int32
	// returns lists home ports on this peer, each owed one DropSendRef
	// by a proxy here that retired or died; spare keeps the last
	// drained batch's backing array for reuse. Guarded by Server.mu.
	returns, spare []*ipc.Port
	// flush is the idle-flush timer; armed is set while it is pending.
	// Guarded by Server.mu.
	flush *time.Timer
	armed bool
}

// cacheEntry is one positive remote lookup result.
type cacheEntry struct {
	port   *ipc.Port
	expiry time.Duration // virtual-clock deadline
	cancel func()        // death-watch cancellation
}

// NewServer boots the message server for one host and attaches it to
// the network. It fails if the network already has a server for the
// host.
func NewServer(host machine.HostID, topo *machine.Topology, net *Network) (*Server, error) {
	s := &Server{
		host:    host,
		topo:    topo,
		net:     net,
		space:   ipc.NewSpace(host, topo),
		proxies: make(map[*ipc.Port]*ipc.Port),
		owed:    make(map[*ipc.Port]*ipc.Port),
		names:   make(map[string]*ipc.Port),
		cache:   make(map[string]*cacheEntry),
		dir:     make(map[string]*dirEntry),
		neg:     make(map[string]time.Duration),
		negWait: make(map[string]map[machine.HostID]bool),
		linger:  proxyLinger,
		met:     obs.NetmsgHost(int(host)),
		peers:   make(map[machine.HostID]*peerState),
	}
	s.base = s.loadStats()
	srv, err := rpc.NewServer(s.space)
	if err != nil {
		s.space.Destroy()
		return nil, err
	}
	srv.Handle(MsgCheckIn, s.handleCheckIn)
	srv.Handle(MsgLookUp, s.handleLookUp)
	s.srv = srv
	if err := net.attach(s); err != nil {
		s.space.Destroy()
		return nil, err
	}
	go srv.Run()
	return s, nil
}

// Host returns the host this server serves.
func (s *Server) Host() machine.HostID { return s.host }

// Publish installs a send right to this server's registry service port
// into a local task's space — the bootstrap right every task needs to
// reach the name service.
func (s *Server) Publish(dst *ipc.Space) (ipc.Name, error) {
	return s.space.CopySendRight(dst, s.srv.Port)
}

// Stop tears the server down: proxies die (destroying queued rights,
// notifying local holders), the registry stops answering, and the
// server detaches from the network. Every sender-count return still
// owed, queued or held by a proxy not yet gone, goes out before Stop
// returns, one control message per peer owed any; nothing is charged
// or counted after.
func (s *Server) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	owed := make(map[machine.HostID]bool)
	var returns []*ipc.Port
	for h, pe := range s.peers {
		if pe.armed {
			pe.flush.Stop()
			pe.armed = false
		}
		if len(pe.returns) > 0 {
			owed[h] = true
			returns = append(returns, pe.returns...)
			pe.returns = nil
			pe.pending.Store(0)
		}
	}
	proxies := make([]*ipc.Port, 0, len(s.proxies))
	for _, pp := range s.proxies {
		proxies = append(proxies, pp)
	}
	for pp, home := range s.owed {
		if s.proxies[home] == pp {
			s.met.ProxiesDied.Inc()
		} else {
			s.met.ProxiesRetired.Inc() // committed, forwarder not yet out
		}
		s.met.Proxies.Add(-1)
		if !home.Dead() {
			owed[home.Home()] = true
			returns = append(returns, home)
		}
	}
	s.owed = nil
	cache := s.cache
	s.cache = make(map[string]*cacheEntry)
	dir := s.dir
	s.dir = make(map[string]*dirEntry)
	s.met.DirEntries.Add(-int64(len(dir)))
	s.neg = make(map[string]time.Duration)
	s.negWait = make(map[string]map[machine.HostID]bool)
	s.mu.Unlock()
	for _, e := range cache {
		e.cancel()
	}
	for _, e := range dir {
		e.cancel()
	}
	s.net.detach(s)
	for _, pp := range proxies {
		pp.Destroy()
	}
	s.settling.Wait()
	if s.topo != nil {
		for h := range owed {
			s.topo.ChargeMessage(s.host, h, controlBytes)
			s.peer(h).met.ControlMsgs.Inc()
		}
	}
	for _, home := range returns {
		home.DropSendRef()
	}
	s.srv.Stop()
	s.space.Destroy()
}

// loadStats reads the host's registry counters with atomic loads.
func (s *Server) loadStats() Stats {
	return Stats{
		ProxiesCreated:    int64(s.met.ProxiesCreated.Load()),
		ProxiesRetired:    int64(s.met.ProxiesRetired.Load()),
		ProxiesDied:       int64(s.met.ProxiesDied.Load()),
		ActiveProxies:     int(s.met.Proxies.Load()),
		LookupCacheHits:   int64(s.met.CacheHits.Load()),
		HomeLookups:       int64(s.met.HomeLookups.Load()),
		NegCacheHits:      int64(s.met.NegCacheHits.Load()),
		InvalidationsSent: int64(s.met.InvalidationsSent.Load()),
		InvalidationsRecv: int64(s.met.InvalidationsRecv.Load()),
		DirEntries:        int(s.met.DirEntries.Load()),
	}
}

// Stats returns a snapshot of the server's proxy and registry counters.
// It is a thin wrapper over the obs registry: every field is an atomic
// load (the forwarder goroutines mutating the counters are never read
// unsynchronized), re-based to this server's lifetime since the
// registry metrics are cumulative per host across server incarnations.
func (s *Server) Stats() Stats {
	cur := s.loadStats()
	return Stats{
		ProxiesCreated:    cur.ProxiesCreated - s.base.ProxiesCreated,
		ProxiesRetired:    cur.ProxiesRetired - s.base.ProxiesRetired,
		ProxiesDied:       cur.ProxiesDied - s.base.ProxiesDied,
		ActiveProxies:     cur.ActiveProxies,
		LookupCacheHits:   cur.LookupCacheHits - s.base.LookupCacheHits,
		HomeLookups:       cur.HomeLookups - s.base.HomeLookups,
		NegCacheHits:      cur.NegCacheHits - s.base.NegCacheHits,
		InvalidationsSent: cur.InvalidationsSent - s.base.InvalidationsSent,
		InvalidationsRecv: cur.InvalidationsRecv - s.base.InvalidationsRecv,
		DirEntries:        cur.DirEntries,
	}
}

// peer returns (resolving on first use) the state toward one remote
// host.
func (s *Server) peer(h machine.HostID) *peerState {
	s.mu.Lock()
	pe := s.peerLocked(h)
	s.mu.Unlock()
	return pe
}

func (s *Server) peerLocked(h machine.HostID) *peerState {
	pe := s.peers[h]
	if pe == nil {
		pe = &peerState{met: obs.NetmsgPeer(int(s.host), int(h))}
		s.peers[h] = pe
	}
	return pe
}

// returnSendRefLocked hands back a retired or dead proxy's one logical
// send right at home. The sender-count delta is queued for home's host
// and rides the next message this server forwards there (deliver drops
// it once that message holds its own references); if nothing crosses
// within the linger, the idle flush sends the batch as one control
// message. It reports whether the caller must drop the reference
// itself, after releasing s.mu: a dead home needs no message, and with
// no linger the return is charged on its own at once.
func (s *Server) returnSendRefLocked(home *ipc.Port) (drop bool) {
	if home.Dead() || s.topo == nil {
		return true
	}
	dst := home.Home()
	pe := s.peerLocked(dst)
	if s.linger <= 0 {
		s.topo.ChargeMessage(s.host, dst, controlBytes)
		pe.met.ControlMsgs.Inc()
		return true
	}
	pe.returns = append(pe.returns, home)
	pe.pending.Add(1)
	if !pe.armed {
		pe.armed = true
		if pe.flush == nil {
			pe.flush = time.AfterFunc(s.linger, func() { s.sendReturns(dst, pe, true) })
		} else {
			pe.flush.Reset(s.linger)
		}
	}
	return false
}

// sendReturns drops every sender-count return owed to dst. Called by
// deliver, they ride the data message it just sent there; called by
// the idle-flush timer (idle set), they cost one control message of
// their own, charged under the lock so it always lands before a
// concurrent Stop's. The drops run outside the lock (one can fire a
// no-senders callback that re-enters the server), and the batch's
// backing array is kept for reuse.
func (s *Server) sendReturns(dst machine.HostID, pe *peerState, idle bool) {
	s.mu.Lock()
	if idle {
		pe.armed = false
	} else if pe.armed && pe.flush.Stop() {
		pe.armed = false
	}
	if s.stopped || len(pe.returns) == 0 {
		// Stop took any that were left and charges them itself.
		s.mu.Unlock()
		return
	}
	batch := pe.returns
	pe.returns, pe.spare = pe.spare[:0], nil
	pe.pending.Store(0)
	if idle {
		s.topo.ChargeMessage(s.host, dst, controlBytes)
		pe.met.ControlMsgs.Inc()
	}
	s.settling.Add(1)
	s.mu.Unlock()
	for i, home := range batch {
		home.DropSendRef()
		batch[i] = nil
	}
	s.mu.Lock()
	if pe.spare == nil {
		pe.spare = batch[:0]
	}
	s.mu.Unlock()
	s.settling.Done()
}

// ProxyFor returns the port through which senders on this host reach p:
// p itself when it is (or forwards to a port) homed here, otherwise a
// local proxy, materialized with its forwarding thread on first use.
// The returned port is pinned with one kernel send reference
// (AddSendRef) so a concurrent garbage collection cannot retire it out
// from under the caller; the caller must DropSendRef once the right has
// been handed on. Kernel-side API; tasks get proxies through the
// registry.
func (s *Server) ProxyFor(p *ipc.Port) *ipc.Port {
	pp, _ := s.proxyFor(p)
	return pp
}

// proxyFor is ProxyFor reporting whether this call materialized the
// proxy (the event translate charges a third-party registration for).
// Every return is pinned.
func (s *Server) proxyFor(p *ipc.Port) (*ipc.Port, bool) {
	home := s.net.unproxy(p)
	if home.Home() == s.host || home.Dead() {
		home.AddSendRef()
		return home, false
	}
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		// No forwarding available; hand back the raw port (sends still
		// work and are charged — only the proxy indirection is gone).
		home.AddSendRef()
		return home, false
	}
	if pp, ok := s.proxies[home]; ok && !pp.Dead() {
		pp.AddSendRef()
		s.mu.Unlock()
		return pp, false
	}
	pp := ipc.NewRawPort(s.host)
	// The unproxy mapping must exist before any holder can see the
	// proxy (lock order Server.mu -> Network.mu), or a concurrently
	// translated right could chain a proxy onto this proxy.
	s.net.registerProxy(pp, home)
	s.proxies[home] = pp
	pp.AddSendRef() // the caller's pin
	// The proxy holds exactly one logical send right at home for all
	// its local senders; it is returned when the proxy retires or dies,
	// so a home port's sender count sums real senders across all hosts.
	// Taken under the lock, before Stop can settle it.
	home.AddSendRef()
	s.owed[pp] = home
	s.met.ProxiesCreated.Inc()
	s.met.Proxies.Add(1)
	s.mu.Unlock()
	// The proxy follows its home port down, so local holders see the
	// death as a dead name exactly as holders on the home host do; the
	// watch is cancelled if the proxy dies first (server stop).
	cancel := home.WatchDeath(pp.Destroy)
	// Distributed GC, local half: when the last local send reference to
	// the proxy goes away, queue the retire sentinel behind any
	// in-flight traffic. The callback runs on whatever goroutine
	// dropped the last reference, so it only does a forced local
	// enqueue.
	pp.WatchNoSenders(func(uint32) { s.scheduleRetire(pp) })
	go s.forward(pp, home, cancel)
	return pp, true
}

// scheduleRetire queues the retire sentinel on a proxy whose last local
// sender went away, after the linger grace (a handout during the grace
// makes the sentinel abort at commit time). Forced: a retire must never
// block, and the sentinel must land behind every message sent while
// senders still existed. A sentinel racing a proxy that already died is
// a silently failed send.
func (s *Server) scheduleRetire(proxy *ipc.Port) {
	post := func() {
		s.mu.Lock()
		stopped := s.stopped
		s.mu.Unlock()
		if stopped {
			// The server tore every proxy down already; don't post
			// sentinels at destroyed ports from a straggling timer.
			return
		}
		_ = ipc.RawSend(nil, s.host, proxy, &ipc.Message{ID: msgProxyRetire}, ipc.SendOptions{Force: true})
	}
	if s.linger <= 0 {
		post()
		return
	}
	time.AfterFunc(s.linger, post)
}

// tryRetire attempts to commit a proxy retirement. Both the reference
// count and the queue depth are checked under the handout lock: new
// handouts pin the proxy under this same lock and a message can only be
// enqueued by a sender holding a reference, so reading zero refs AND an
// empty queue here means neither can appear again — the retirement
// wins, the proxy leaves the map, and no one can reach it.
//
// Otherwise the retirement aborts, and the return value tells the
// forwarder how the cycle will terminate. rearmed: a live sender was
// seen and the no-senders watch is armed again — the next zero
// transition queues a fresh sentinel (the watch is armed FIRST and the
// count re-read after, so a drop landing after the arm fires the watch
// itself, while one landing before it is caught by the re-read, which
// queues the fresh sentinel directly). Neither retired nor rearmed:
// references are gone but traffic is still queued behind the sentinel
// and must be relayed, never destroyed — the forwarder keeps a pending
// retirement and re-tries after each relay (never a synchronous
// sentinel repost, which could livelock on a queue holding nothing but
// sentinels).
func (s *Server) tryRetire(proxy, home *ipc.Port) (retired, rearmed bool) {
	s.mu.Lock()
	if proxy.SendRefs() == 0 && proxy.QueueLen() == 0 {
		if s.proxies[home] == proxy {
			delete(s.proxies, home)
		}
		s.mu.Unlock()
		return true, false
	}
	raced := false
	if proxy.SendRefs() > 0 {
		proxy.WatchNoSenders(func(uint32) { s.scheduleRetire(proxy) })
		if proxy.SendRefs() > 0 {
			s.mu.Unlock()
			return false, true
		}
		raced = true
	}
	s.mu.Unlock()
	if raced {
		// The raced drop beat the arm, so no fire will come, and the
		// queue may already be empty (nothing for the forwarder to
		// sweep on): one fresh sentinel terminates the cycle. Queued
		// after unlocking: with no linger, scheduleRetire posts at once
		// and takes s.mu itself.
		s.scheduleRetire(proxy)
	}
	return false, false
}

// forward is a proxy's store-and-forward thread: it drains the proxy
// queue and re-sends each message toward the home port. It exits when
// the proxy dies (home port death, server stop, or no-senders
// retirement), dropping the death watch and the proxy's send right at
// home on the way out.
func (s *Server) forward(proxy, home *ipc.Port, cancelWatch func()) {
	retired := false
	// pending marks an aborted retirement whose references are gone but
	// whose queue still held traffic: re-try after every relay until it
	// commits or a live sender re-arms the watch.
	pending := false
	for {
		m, err := ipc.RawReceive(proxy, ipc.ReceiveOptions{})
		if err != nil {
			break
		}
		if m.ID == msgProxyRetire {
			ok, rearmed := s.tryRetire(proxy, home)
			if ok {
				retired = true
				proxy.Destroy()
				break
			}
			pending = !rearmed
			continue
		}
		if err := s.deliver(home, m); err != nil {
			// The home port died with traffic in flight; the proxy
			// follows, destroying any rights still queued on it.
			proxy.Destroy()
			break
		}
		if pending {
			ok, rearmed := s.tryRetire(proxy, home)
			if ok {
				retired = true
				proxy.Destroy()
				break
			}
			if rearmed {
				pending = false
			}
		}
	}
	cancelWatch()
	s.net.forgetProxy(proxy)
	s.mu.Lock()
	if s.proxies[home] == proxy {
		delete(s.proxies, home)
	}
	if _, ok := s.owed[proxy]; !ok {
		s.mu.Unlock() // Stop settled this proxy
		return
	}
	delete(s.owed, proxy)
	// Return the proxy's one logical send right at home, piggybacked as
	// a real netmsgserver does. If it was the last send reference
	// anywhere, the home port's no-senders fires to its receiver once
	// the return arrives.
	drop := s.returnSendRefLocked(home)
	s.settling.Add(1)
	s.mu.Unlock()
	if drop {
		home.DropSendRef()
	}
	// Counted last: once the counters show the proxy gone, its right is
	// back home or queued to go.
	if retired {
		s.met.ProxiesRetired.Inc()
	} else {
		s.met.ProxiesDied.Inc()
	}
	s.met.Proxies.Add(-1)
	s.settling.Done()
}

// deliver translates one proxied message for the home port's host and
// re-sends it there. The charge is the second hop of the netmsgserver
// relay: the sender already paid the local hop onto the proxy queue.
func (s *Server) deliver(home *ipc.Port, m *ipc.Message) error {
	// Home is read per message: if the receive right migrated since the
	// proxy was built, traffic follows it.
	dst := home.Home()
	pe := s.peer(dst)
	pe.met.Msgs.Inc()
	pe.met.Bytes.Add(uint64(m.WireSize()))
	// pins holds the handout references translate takes; they are
	// dropped once the forwarded message's own transit references (or
	// its failure path) have taken over.
	var pins []*ipc.Port
	fwd := &ipc.Message{ID: m.ID, Sections: make([]ipc.Section, len(m.Sections))}
	// The forwarded copy inherits the original's trace, so a sampled
	// message stays one trace across the relay hop.
	if t := m.Trace(); t != 0 {
		fwd.SetTrace(t)
		obs.RecordHop(int32(s.host), t, obs.HopProxyForward, int32(m.ID), home.ID())
	}
	for i := range m.Sections {
		sec := m.Sections[i]
		if sec.Kind == ipc.PortRightSection {
			fwd.Sections[i] = ipc.CarryRawRight(s.translate(dst, sec.RawPort(), sec.Right, &pins), sec.Right)
		} else {
			fwd.Sections[i] = sec
		}
	}
	if rp := m.ReplyPort(); rp != nil {
		fwd.SetReplyPort(s.translate(dst, rp, ipc.SendRight, &pins))
	}
	// Not forced: when the home queue is full the forwarder blocks,
	// the proxy queue behind it fills, and local senders block at the
	// proxy's backlog — the same end-to-end backpressure a local
	// sender sees, relayed per proxy so one slow destination stalls
	// only its own traffic. A destroyed home port wakes the blocked
	// send with ErrPortDied. An undeliverable message has its carried
	// receive rights destroyed and send references released by RawSend
	// itself.
	err := ipc.RawSend(s.topo, s.host, home, fwd, ipc.SendOptions{})
	// The sender-count returns owed to dst ride this message. They are
	// dropped only now, after the forwarded copy holds its own transit
	// references, so a returned right never takes a home port's count
	// through zero while that right is in flight.
	if pe.pending.Load() != 0 {
		s.sendReturns(dst, pe, false)
	}
	for _, p := range pins {
		p.DropSendRef()
	}
	// The original message's in-transit references are released only
	// now, after the forwarded copy holds its own: the extant counts
	// never dip through zero mid-relay.
	m.ReleaseRights()
	return err
}

// translate rewrites one in-flight port reference for delivery on host
// dst: proxies unwrap to their home ports, ports homed on dst pass
// through, anything else is re-proxied by dst's message server so the
// receiver gets a sendable local stand-in. Receive rights always travel
// as the real port — the queue itself moves, rehoming the port at
// insertion. A proxy for a right homed on this host is set up by the
// carrying message itself; one for a right homed on a third host costs
// one control message, dst registering with that home. Any pinned
// handout is appended to pins for the caller to release.
func (s *Server) translate(dst machine.HostID, p *ipc.Port, r ipc.Right, pins *[]*ipc.Port) *ipc.Port {
	if p == nil {
		return nil
	}
	home := s.net.unproxy(p)
	if r&ipc.ReceiveRight != 0 || home.Home() == dst {
		return home
	}
	peer := s.net.serverFor(dst)
	if peer == nil {
		// No message server on dst: deliver the raw right (direct
		// charged sends, no forwarding indirection).
		return home
	}
	pp, created := peer.proxyFor(home)
	*pins = append(*pins, pp)
	if h := home.Home(); created && peer != s && h != s.host {
		// A third-party right: dst's server registers its new proxy
		// with the right's home host. A right homed here needs no
		// message of its own — this server sees it leave, and its
		// descriptor already rides in the carrying message.
		s.topo.ChargeMessage(dst, h, controlBytes)
		peer.peer(h).met.ControlMsgs.Inc()
	}
	return pp
}
