package fs

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/netmsg"
	"repro/internal/obs"
)

func waitForSessions(t *testing.T, srv *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if srv.OpenSessions() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("open sessions stuck at %d, want %d", srv.OpenSessions(), want)
}

// TestOpenHandleReadAt: the open-handle protocol reads file contents
// through the session capability, and Close reaps the session.
func TestOpenHandleReadAt(t *testing.T) {
	_, srv, client := newFS(t)
	content := bytes.Repeat([]byte("duality "), 100) // ~800 bytes, 4 pages
	if err := srv.CreateFile("f", content); err != nil {
		t.Fatal(err)
	}
	svc, err := srv.Publish(client)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Open(client, svc, "f")
	if err != nil {
		t.Fatal(err)
	}
	if h.Size != uint64(len(content)) {
		t.Fatalf("open size %d, want %d", h.Size, len(content))
	}
	if srv.OpenSessions() != 1 {
		t.Fatalf("open sessions %d, want 1", srv.OpenSessions())
	}
	// Reads at offsets spanning page boundaries.
	got, err := h.ReadAt(250, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content[250:270]) {
		t.Fatalf("read %q, want %q", got, content[250:270])
	}
	// A read past EOF truncates.
	got, err = h.ReadAt(uint64(len(content))-4, 100)
	if err != nil || len(got) != 4 {
		t.Fatalf("tail read %d bytes, err %v", len(got), err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	waitForSessions(t, srv, 0)
	if srv.SessionsReaped() != 1 {
		t.Fatalf("sessions reaped %d, want 1", srv.SessionsReaped())
	}
	// The handle is now stale server-side; a second client opening gets
	// a fresh session.
	if _, err := Open(client, svc, "f"); err != nil {
		t.Fatal(err)
	}
	waitForSessions(t, srv, 1)
}

// TestOpenHandleReapedOnClientDeath is the fs kill-the-client test: a
// client dying with handles open has its sessions reaped by the
// no-senders machinery, with no explicit cleanup call anywhere.
func TestOpenHandleReapedOnClientDeath(t *testing.T) {
	k, srv, client := newFS(t)
	if err := srv.CreateFile("a", []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	if err := srv.CreateFile("b", []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	svc, err := srv.Publish(client)
	if err != nil {
		t.Fatal(err)
	}
	ha, err := Open(client, svc, "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(client, svc, "b"); err != nil {
		t.Fatal(err)
	}
	waitForSessions(t, srv, 2)
	if _, err := ha.ReadAt(0, 4); err != nil {
		t.Fatal(err)
	}

	// A survivor holds its own handle; only the dead client's session
	// must go.
	survivor := k.NewTask()
	svc2, err := srv.Publish(survivor)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := Open(survivor, svc2, "a")
	if err != nil {
		t.Fatal(err)
	}
	waitForSessions(t, srv, 3)

	client.Terminate()
	waitForSessions(t, srv, 1)
	if got, err := hs.ReadAt(0, 4); err != nil || string(got) != "aaaa" {
		t.Fatalf("survivor read %q, %v", got, err)
	}
	if srv.SessionsReaped() != 2 {
		t.Fatalf("sessions reaped %d, want 2", srv.SessionsReaped())
	}
}

// TestCrossHostCloseReapsWithoutTraffic: a client on another host opens
// a file through its netmsg proxy and closes it, and nothing crosses
// afterwards. The handle proxy's sender-count return has no later
// message to ride, so the idle flush carries it: the session is still
// reaped, exactly once, for one control message from host 1 to host 0.
func TestCrossHostCloseReapsWithoutTraffic(t *testing.T) {
	clock := machine.NewClock()
	topo := machine.NewTopology(machine.ModelFor(machine.NORMA), clock)
	net := netmsg.NewNetwork()
	mk := func(h machine.HostID) *kern.Kernel {
		k := kern.NewKernel(kern.Config{Host: h, Frames: 256, PageSize: pgsz, Clock: clock, Topo: topo, NetMsg: net})
		t.Cleanup(k.Shutdown)
		return k
	}
	k0, k1 := mk(0), mk(1)
	srv, err := NewServer(k0, machine.NewDisk(1024, pgsz, machine.DefaultDiskLatency, clock))
	if err != nil {
		t.Fatal(err)
	}
	go srv.Run()
	t.Cleanup(srv.Stop)
	if err := srv.CreateFile("f", []byte("remote")); err != nil {
		t.Fatal(err)
	}
	reg := k0.NewTask()
	svc, err := srv.Publish(reg)
	if err != nil {
		t.Fatal(err)
	}
	boot, err := k0.NetMsg().Publish(reg.Space)
	if err != nil {
		t.Fatal(err)
	}
	if err := netmsg.CheckIn(reg.Space, boot, "fs", svc); err != nil {
		t.Fatal(err)
	}

	client := k1.NewTask()
	boot1, err := k1.NetMsg().Publish(client.Space)
	if err != nil {
		t.Fatal(err)
	}
	rsvc, err := netmsg.LookUp(client.Space, boot1, "fs")
	if err != nil {
		t.Fatal(err)
	}
	h, err := Open(client, rsvc, "f")
	if err != nil {
		t.Fatal(err)
	}
	waitForSessions(t, srv, 1)
	before := obs.Default().Snapshot()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	waitForSessions(t, srv, 0)
	if got := srv.SessionsReaped(); got != 1 {
		t.Fatalf("sessions reaped %d, want 1", got)
	}
	if c := obs.Default().Snapshot().Diff(before).Counters["host1.netmsg.peer0.control_msgs"]; c != 1 {
		t.Fatalf("close cost %d control messages from host 1 to host 0, want 1 (the idle flush)", c)
	}
}
