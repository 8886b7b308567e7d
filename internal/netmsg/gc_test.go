// Distributed proxy garbage collection tests: no-senders counts drive
// proxy retirement across hosts and fire the home port's notification
// when its senders reach zero everywhere.
package netmsg_test

import (
	"testing"
	"time"

	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/netmsg"
	"repro/internal/rpc"
	"repro/mach"
)

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestCrossHostProxyGCAndNoSenders is the acceptance scenario: a client
// on host 1 holds the only send right to a server checked in on host 0.
// Dropping it (by killing the client task) retires the proxy on host 1,
// returns the proxy's send right at home, fires no-senders on host 0,
// and the server reaps itself — with zero leaked proxies on either host
// after the run.
func TestCrossHostProxyGCAndNoSenders(t *testing.T) {
	k0, k1, _ := complex2(t)

	// Server on host 0: a typed echo service that stops when its last
	// client (anywhere in the complex) is gone.
	serverTask := k0.NewTask()
	srv, err := rpc.NewServer(serverTask.Space)
	if err != nil {
		t.Fatal(err)
	}
	const msgEcho ipc.MsgID = 6100
	srv.Handle(msgEcho, func(m *ipc.Message, d *rpc.Dec) (*rpc.Reply, error) {
		b := d.Bytes()
		if err := d.Err(); err != nil {
			return nil, err
		}
		r := rpc.NewReply()
		r.Bytes(b)
		return r, nil
	})
	go srv.Run()
	t.Cleanup(srv.Stop)
	checkIn(t, serverTask, "echo-gc", srv.Port)
	// Arm after bootstrap: the registry's check-in is weak (it holds no
	// counting right), so from here the server lives exactly as long as
	// some real client right exists somewhere.
	if err := srv.StopWhenUnreferenced(); err != nil {
		t.Fatal(err)
	}

	// Client on host 1: the only send right in the complex.
	client := k1.NewTask()
	proxyName := lookUp(t, client, "echo-gc")
	st1 := k1.NetMsg().Stats()
	if st1.ProxiesCreated == 0 || st1.ActiveProxies == 0 {
		t.Fatalf("no proxy materialized on host 1: %+v", st1)
	}

	resp, err := rpc.NewClient(client.Space, proxyName, 5*time.Second).
		Invoke(msgEcho, rpc.NewEnc().Bytes([]byte("over the wire")))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Dec.Bytes()) != "over the wire" {
		t.Fatal("echo mismatch through proxy")
	}
	if srv.Stopped() {
		t.Fatal("server stopped while the client held a right")
	}

	// Kill the client. Everything below happens with no further help:
	// the proxy's no-senders fires on host 1, the proxy drains and
	// retires, its send right at home is returned, the home port's
	// count reaches zero, and the server's watcher stops the service.
	client.Terminate()

	waitUntil(t, "proxy retirement on host 1", func() bool {
		st := k1.NetMsg().Stats()
		return st.ActiveProxies == 0 && st.ProxiesRetired >= 1
	})
	waitUntil(t, "server no-senders stop on host 0", srv.Stopped)
	waitUntil(t, "zero proxies on host 0", func() bool {
		return k0.NetMsg().Stats().ActiveProxies == 0
	})
	if st := k1.NetMsg().Stats(); st.ActiveProxies != 0 {
		t.Fatalf("leaked proxies on host 1: %+v", st)
	}
}

// TestProxySurvivesOtherClients: retiring one client's rights must not
// retire a proxy other local clients still use — and the home server
// only stops when the last right in the complex dies.
func TestProxySurvivesOtherClients(t *testing.T) {
	k0, k1, _ := complex2(t)
	serverTask := k0.NewTask()
	srv, err := rpc.NewServer(serverTask.Space)
	if err != nil {
		t.Fatal(err)
	}
	const msgPing ipc.MsgID = 6101
	srv.Handle(msgPing, func(m *ipc.Message, d *rpc.Dec) (*rpc.Reply, error) {
		return rpc.NewReply(), nil
	})
	go srv.Run()
	t.Cleanup(srv.Stop)
	checkIn(t, serverTask, "ping-gc", srv.Port)
	if err := srv.StopWhenUnreferenced(); err != nil {
		t.Fatal(err)
	}

	c1 := k1.NewTask()
	c2 := k1.NewTask()
	n1 := lookUp(t, c1, "ping-gc")
	n2 := lookUp(t, c2, "ping-gc")

	c1.Terminate()
	// c2's right pins the shared proxy: pings keep working.
	for i := 0; i < 3; i++ {
		if _, err := rpc.NewClient(c2.Space, n2, 5*time.Second).Invoke(msgPing, nil); err != nil {
			t.Fatalf("ping %d after sibling death: %v", i, err)
		}
	}
	if srv.Stopped() {
		t.Fatal("server stopped while a client survived")
	}
	_ = n1
	c2.Terminate()
	waitUntil(t, "server stop after last client", srv.Stopped)
	waitUntil(t, "all proxies gone", func() bool {
		return k0.NetMsg().Stats().ActiveProxies == 0 && k1.NetMsg().Stats().ActiveProxies == 0
	})
}

// TestLookupCacheAndInvalidation covers the registry's TTL cache: a
// repeated remote lookup is answered from the cache with zero
// interconnect traffic, and the death of the cached port invalidates
// the entry. Needs a host that holds no directory slice for the name
// (home and replica answer from the directory, never the cache), so it
// boots four hosts and picks a client host with zero DirEntries.
func TestLookupCacheAndInvalidation(t *testing.T) {
	kernels, topo, _ := mach.Complex(4, machine.NORMA, 1024, 4096)
	t.Cleanup(func() {
		for _, k := range kernels {
			k.Shutdown()
		}
	})
	k0 := kernels[0]
	serverTask := k0.NewTask()
	svcPort, err := serverTask.Space.AllocatePort()
	if err != nil {
		t.Fatal(err)
	}
	checkIn(t, serverTask, "cached", svcPort)

	var ck *kern.Kernel
	for _, k := range kernels[1:] {
		if k.NetMsg().Stats().DirEntries == 0 {
			ck = k
			break
		}
	}
	if ck == nil {
		t.Fatal("no host without a directory slice (home+replica cover 2 of 4)")
	}

	client := ck.NewTask()
	_ = lookUp(t, client, "cached") // miss: one round trip to the home node
	if got := ck.NetMsg().Stats().HomeLookups; got != 1 {
		t.Fatalf("home lookups %d, want 1", got)
	}
	before := topo.Stats().RemoteMessages
	_ = lookUp(t, client, "cached") // hit: local round trip only
	delta := topo.Stats().RemoteMessages - before
	if delta != 0 {
		t.Fatalf("cached lookup cost %d remote messages, want 0", delta)
	}
	if hits := ck.NetMsg().Stats().LookupCacheHits; hits != 1 {
		t.Fatalf("cache hits %d, want 1", hits)
	}

	// Death invalidation: destroy the service port; the WatchDeath hook
	// drops the cache entry and the name stops resolving everywhere.
	if err := serverTask.Space.DeallocatePort(svcPort); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "cache invalidation", func() bool {
		svc, err := client.Kernel().NetMsg().Publish(client.Space)
		if err != nil {
			return false
		}
		_, err = netmsg.LookUp(client.Space, svc, "cached")
		return err == netmsg.ErrNotFound
	})
}

// TestRegistryCheckInIsWeak: the registry must not count toward a
// service's sender total — a server with no-senders armed after
// check-in learns when its last real client is gone even on one host.
func TestRegistryCheckInIsWeak(t *testing.T) {
	k0, _, _ := complex2(t)
	serverTask := k0.NewTask()
	srv, err := rpc.NewServer(serverTask.Space)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Run()
	t.Cleanup(srv.Stop)
	checkIn(t, serverTask, "weak", srv.Port)
	if err := srv.StopWhenUnreferenced(); err != nil {
		t.Fatal(err)
	}

	// A same-host client: look up, then die.
	client := k0.NewTask()
	_ = lookUp(t, client, "weak")
	if srv.Stopped() {
		t.Fatal("server stopped while client lived")
	}
	client.Terminate()
	waitUntil(t, "weak check-in no-senders", srv.Stopped)
}

var _ = kern.ErrTaskDead // keep the import stable across edits
