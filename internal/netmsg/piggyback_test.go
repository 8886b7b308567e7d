// White-box tests of the piggybacked distributed-GC bookkeeping: proxy
// set-up and sender-count returns travel inside data messages that cross
// anyway, and cost a control message only when nothing is crossing.
package netmsg

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ipc"
	"repro/internal/machine"
	"repro/internal/obs"
)

// gcComplex boots n message servers on one NORMA topology, each with
// the given linger, stopped at cleanup.
func gcComplex(t *testing.T, n int, linger time.Duration) (*machine.Topology, []*Server) {
	t.Helper()
	topo := machine.NewTopology(machine.ModelFor(machine.NORMA), machine.NewClock())
	net := NewNetwork()
	servers := make([]*Server, n)
	for i := range servers {
		s, err := NewServer(machine.HostID(i), topo, net)
		if err != nil {
			t.Fatal(err)
		}
		s.linger = linger
		t.Cleanup(s.Stop)
		servers[i] = s
	}
	return topo, servers
}

// ctlDiff returns the control messages charged since before: the total
// over every edge, and the per-edge counts keyed "from->to".
func ctlDiff(before obs.Snapshot) (uint64, map[string]uint64) {
	var total uint64
	edges := map[string]uint64{}
	for name, v := range obs.Default().Snapshot().Diff(before).Counters {
		var from, to int
		if !strings.HasSuffix(name, ".control_msgs") || v == 0 {
			continue
		}
		if _, err := fmt.Sscanf(name, "host%d.netmsg.peer%d.control_msgs", &from, &to); err != nil {
			continue
		}
		total += v
		edges[fmt.Sprintf("%d->%d", from, to)] += v
	}
	return total, edges
}

// relay sends m from s's host through its proxy for home; the
// forwarder carries it on to home.
func relay(t *testing.T, s *Server, home *ipc.Port, m *ipc.Message) {
	t.Helper()
	pp := s.ProxyFor(home)
	defer pp.DropSendRef()
	if pp == home {
		t.Fatal("no proxy materialized")
	}
	if err := ipc.RawSend(nil, s.host, pp, m, ipc.SendOptions{}); err != nil {
		t.Fatal(err)
	}
}

// receive takes the next message off a kernel-held port.
func receive(t *testing.T, p *ipc.Port) *ipc.Message {
	t.Helper()
	m, err := ipc.RawReceive(p, ipc.ReceiveOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// waitFired waits until every counter has fired at least once.
func waitFired(t *testing.T, fired []*atomic.Int32) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for i := range fired {
		for fired[i].Load() == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("home %d: no-senders never fired", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// retireNow drops the pin on a freshly handed-out proxy and queues its
// retire sentinel directly (the tests run with a linger long enough that
// the no-senders watch's own sentinel never comes into play), then
// waits for the forwarder to commit the retirement.
func retireNow(t *testing.T, s *Server, pp *ipc.Port) {
	t.Helper()
	retired := s.Stats().ProxiesRetired
	pp.DropSendRef()
	if err := ipc.RawSend(nil, s.host, pp, &ipc.Message{ID: msgProxyRetire}, ipc.SendOptions{Force: true}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().ProxiesRetired == retired {
		if time.Now().After(deadline) {
			t.Fatal("proxy did not retire")
		}
		time.Sleep(time.Millisecond)
	}
}

// watchedHomes makes n ports on host 0, destroyed at cleanup, each with
// a no-senders watch that counts its firings and records probe's queue
// depth when the first one runs.
func watchedHomes(t *testing.T, n int, probe *ipc.Port) (homes []*ipc.Port, fired, depth []*atomic.Int32) {
	for i := 0; i < n; i++ {
		h := ipc.NewRawPort(0)
		t.Cleanup(h.Destroy)
		f, d := new(atomic.Int32), new(atomic.Int32)
		d.Store(-1)
		h.WatchNoSenders(func(uint32) {
			if f.Add(1) == 1 && probe != nil {
				d.Store(int32(probe.QueueLen()))
			}
		})
		homes, fired, depth = append(homes, h), append(fired, f), append(depth, d)
	}
	return homes, fired, depth
}

// TestPiggybackProxySetupInReply: a message forwarded from host 1 that
// carries a right homed on host 1 (an fs Open reply carrying its handle,
// say) sets up the proxy on the destination for free — the carrying
// message is the only traffic.
func TestPiggybackProxySetupInReply(t *testing.T) {
	topo, s := gcComplex(t, 2, time.Hour)
	dst := ipc.NewRawPort(0)
	defer dst.Destroy()
	handle := ipc.NewRawPort(1)
	defer handle.Destroy()

	created := s[0].Stats().ProxiesCreated
	before, net := obs.Default().Snapshot(), topo.Stats()
	relay(t, s[1], dst, &ipc.Message{ID: 1, Sections: []ipc.Section{ipc.CarryRawRight(handle, ipc.SendRight)}})
	got := receive(t, dst)
	defer got.ReleaseRights()

	if c, edges := ctlDiff(before); c != 0 {
		t.Fatalf("proxy set-up cost %d control messages (%v), want 0", c, edges)
	}
	if n := topo.Stats().RemoteMessages - net.RemoteMessages; n != 1 {
		t.Fatalf("%d remote messages, want 1 (the carrying message)", n)
	}
	if n := s[0].Stats().ProxiesCreated - created; n != 1 {
		t.Fatalf("%d proxies created on host 0, want 1", n)
	}
	carried := got.Sections[0].RawPort()
	if carried == handle || carried.Home() != 0 || s[0].net.unproxy(carried) != handle {
		t.Fatalf("carried right %v is not a host-0 proxy for the handle", carried)
	}
}

// TestPiggybackThirdPartyRight: a right homed on a third host costs
// exactly one control message, the destination's server registering its
// new proxy with the right's home (edge dst -> home).
func TestPiggybackThirdPartyRight(t *testing.T) {
	topo, s := gcComplex(t, 3, time.Hour)
	dst := ipc.NewRawPort(0)
	defer dst.Destroy()
	third := ipc.NewRawPort(2)
	defer third.Destroy()

	before, net := obs.Default().Snapshot(), topo.Stats()
	relay(t, s[1], dst, &ipc.Message{ID: 1, Sections: []ipc.Section{ipc.CarryRawRight(third, ipc.SendRight)}})
	got := receive(t, dst)
	defer got.ReleaseRights()

	c, edges := ctlDiff(before)
	if c != 1 || edges["0->2"] != 1 {
		t.Fatalf("third-party right cost %d control messages on edges %v, want exactly 1 on 0->2", c, edges)
	}
	if n := topo.Stats().RemoteMessages - net.RemoteMessages; n != 2 {
		t.Fatalf("%d remote messages, want 2 (carrying message + registration)", n)
	}
	if carried := got.Sections[0].RawPort(); s[0].net.unproxy(carried) != third || carried == third {
		t.Fatalf("carried right %v is not a host-0 proxy for the third-party port", carried)
	}
}

// TestPiggybackReturnsRideNextMessage: N proxies on host 1 retire toward
// host 0 and their sender-count returns wait; the next message forwarded
// to host 0 carries all of them. No control message is charged, and each
// home's no-senders fires only once that message sits in its
// destination queue.
func TestPiggybackReturnsRideNextMessage(t *testing.T) {
	const n = 4
	_, s := gcComplex(t, 2, time.Hour)
	target := ipc.NewRawPort(0)
	defer target.Destroy()

	before := obs.Default().Snapshot()
	homes, fired, depth := watchedHomes(t, n, target)
	for _, h := range homes {
		retireNow(t, s[1], s[1].ProxyFor(h))
	}
	for i, h := range homes {
		if refs := h.SendRefs(); refs != 1 || fired[i].Load() != 0 {
			t.Fatalf("home %d: %d refs, no-senders fired %d times before any message crossed; want 1 ref, 0 fires",
				i, refs, fired[i].Load())
		}
	}

	// The message stays queued at target until every return has landed,
	// so each no-senders callback sees it there.
	relay(t, s[1], target, &ipc.Message{ID: 7})
	waitFired(t, fired)
	receive(t, target).ReleaseRights()
	for i, h := range homes {
		if refs := h.SendRefs(); refs != 0 || fired[i].Load() != 1 {
			t.Fatalf("home %d after the carrying message: %d refs, %d fires; want 0, 1", i, refs, fired[i].Load())
		}
		if d := depth[i].Load(); d < 1 {
			t.Fatalf("home %d: no-senders fired before the carrying message was delivered (target depth %d)", i, d)
		}
	}
	if c, edges := ctlDiff(before); c != 0 {
		t.Fatalf("%d retirements cost %d control messages (%v), want 0", n, c, edges)
	}
}

// TestPiggybackIdleFlush: with no traffic toward the home host, the
// pending returns go out as one control message after the linger, and
// each home's no-senders fires exactly once.
func TestPiggybackIdleFlush(t *testing.T) {
	const n = 4
	linger := 200 * time.Millisecond
	_, s := gcComplex(t, 2, linger)

	before := obs.Default().Snapshot()
	homes, fired, _ := watchedHomes(t, n, nil)
	for _, h := range homes {
		retireNow(t, s[1], s[1].ProxyFor(h))
	}
	waitFired(t, fired)
	time.Sleep(2 * linger) // nothing further may arrive
	c, edges := ctlDiff(before)
	if c != 1 || edges["1->0"] != 1 {
		t.Fatalf("idle flush cost %d control messages on edges %v, want exactly 1 on 1->0", c, edges)
	}
	for i := range homes {
		if f := fired[i].Load(); f != 1 {
			t.Fatalf("home %d: no-senders fired %d times, want 1", i, f)
		}
	}
}

// TestPiggybackStopDrains: Stop sends every pending return before it
// returns — one control message per owed peer, every reference dropped
// — and nothing is charged after it.
func TestPiggybackStopDrains(t *testing.T) {
	const n = 3
	// Short enough that a flush timer left armed past Stop would fire
	// inside the test; Stop normally comes well inside one linger, and
	// either way exactly one batch message is charged.
	linger := 100 * time.Millisecond
	_, s := gcComplex(t, 2, linger)

	before := obs.Default().Snapshot()
	homes, fired, _ := watchedHomes(t, n, nil)
	for _, h := range homes {
		retireNow(t, s[1], s[1].ProxyFor(h))
	}
	s[1].Stop()
	for i, h := range homes {
		if refs, f := h.SendRefs(), fired[i].Load(); refs != 0 || f != 1 {
			t.Fatalf("home %d when Stop returned: %d refs, %d fires; want 0, 1", i, refs, f)
		}
	}
	c, edges := ctlDiff(before)
	if c != 1 || edges["1->0"] != 1 {
		t.Fatalf("Stop charged %d control messages on edges %v, want exactly 1 on 1->0", c, edges)
	}
	time.Sleep(3 * linger)
	if c2, edges := ctlDiff(before); c2 != c {
		t.Fatalf("control messages charged after Stop returned: %v", edges)
	}
}

// TestPiggybackConcurrentReturns: proxies retire on their own (1 ms
// linger) from several goroutines while other traffic toward the home
// host comes and goes, so returns ride messages, idle-flush, and race
// each other onto the same pending list. Every home port still sees its
// count reach zero exactly once.
func TestPiggybackConcurrentReturns(t *testing.T) {
	const workers, perWorker = 4, 25
	_, s := gcComplex(t, 2, time.Millisecond)
	target := ipc.NewRawPort(0)
	defer target.Destroy()

	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // traffic toward host 0 for the returns to ride
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			pp := s[1].ProxyFor(target)
			if err := ipc.RawSend(nil, 1, pp, &ipc.Message{ID: 9}, ipc.SendOptions{}); err != nil {
				t.Error(err)
			}
			pp.DropSendRef()
			time.Sleep(100 * time.Microsecond)
		}
	}()
	go func() { // the target's receiver
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if m, err := ipc.RawReceive(target, ipc.ReceiveOptions{Timeout: 10 * time.Millisecond}); err == nil {
				m.ReleaseRights()
			}
		}
	}()

	homes, fired, _ := watchedHomes(t, workers*perWorker, nil)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, h := range homes[w*perWorker : (w+1)*perWorker] {
				pp := s[1].ProxyFor(h)
				if err := ipc.RawSend(nil, 1, pp, &ipc.Message{ID: 8}, ipc.SendOptions{}); err != nil {
					t.Error(err)
				}
				pp.DropSendRef()
			}
		}(w)
	}
	wg.Wait()
	waitFired(t, fired)
	close(stop)
	bg.Wait()
	for i, h := range homes {
		if refs, f := h.SendRefs(), fired[i].Load(); refs != 0 || f != 1 {
			t.Fatalf("home %d: %d refs, no-senders fired %d times; want 0, 1", i, refs, f)
		}
	}
}
