package fs

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/pager"
	"repro/internal/rpc"
	"repro/internal/vm"
)

// mappedFile creates a file, maps it into a client through ReadFile and
// waits until the kernel's pager_init has given its memory object a
// request port.
func mappedFile(t *testing.T, srv *Server, content []byte) (*pager.MemoryObject, func() []byte) {
	t.Helper()
	if err := srv.CreateFile("f", content); err != nil {
		t.Fatal(err)
	}
	client := srv.kernel.NewTask()
	svc, err := srv.Publish(client)
	if err != nil {
		t.Fatal(err)
	}
	addr, size, err := ReadFile(client, svc, "f")
	if err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	mo := srv.files["f"].mo
	srv.mu.Unlock()
	waitFor(t, "pager_init", func() bool { return mo != nil && srv.mgr.RequestPortReady(mo) })
	return mo, func() []byte {
		got, err := client.VMRead(addr, size)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
}

// TestForgedPortDeathIgnored: a client holding only a send right to the
// service port sends a port-death notification naming a live object's
// request port. Only the kernel enqueues notifications, and only on the
// notify port, so the forgery must not reach Handler.PortDeath (which
// in fs Removes the memory object).
func TestForgedPortDeathIgnored(t *testing.T) {
	_, srv, client := newFS(t)
	svc, err := srv.Publish(client)
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("port death "), 60)
	mo, read := mappedFile(t, srv, content)

	forged := &ipc.Message{
		ID:         ipc.MsgIDPortDeleted,
		RemotePort: svc,
		Sections:   []ipc.Section{ipc.InlineBytes(ipc.EncodeName(mo.Request))},
	}
	if err := client.Space.Send(forged, ipc.SendOptions{}); err != nil {
		t.Fatal(err)
	}
	// A round trip on the same port after the forgery: the one loop
	// serves a port's messages in order, so the forgery has been handled.
	if _, err := Stat(client, svc, "f"); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	cur := srv.files["f"].mo
	srv.mu.Unlock()
	if cur != mo {
		t.Fatal("forged port death dropped the file's memory object")
	}
	if _, ok := srv.mgr.Object(mo.Port); !ok {
		t.Fatal("forged port death removed the memory object")
	}
	if !bytes.Equal(read(), content) {
		t.Fatal("mapped file unreadable after a forged port death")
	}
}

// forgedCreate builds a pager_create a client mints itself: the receive
// right of a fresh port as the "object", plus two send rights. It
// returns the sections and the object port.
func forgedCreate(t *testing.T, space *ipc.Space) ([]ipc.Section, *ipc.Port) {
	t.Helper()
	obj, err := space.AllocatePort()
	if err != nil {
		t.Fatal(err)
	}
	other, err := space.AllocatePort()
	if err != nil {
		t.Fatal(err)
	}
	port, err := space.Resolve(obj)
	if err != nil {
		t.Fatal(err)
	}
	return []ipc.Section{
		ipc.CarryRight(obj, ipc.ReceiveRight),
		ipc.CarryRight(other, ipc.SendRight),
		ipc.CarryRight(other, ipc.SendRight),
		ipc.InlineBytes(pager.EncodePayload(0, pgsz, vm.ProtNone, 0, nil)),
	}, port
}

// registered reports whether srv's manager registered a memory object
// for port.
func registered(srv *Server, port *ipc.Port) bool {
	n, ok := srv.task.Space.NameOf(port)
	if !ok {
		return false
	}
	_, ok = srv.mgr.Object(n)
	return ok
}

// TestForgedPagerCreateIgnored: pager_create is honoured only on the
// default pager's boot port. Sent to the fs service port, directly or
// as a batch sub-call, it must register nothing.
func TestForgedPagerCreateIgnored(t *testing.T) {
	_, srv, client := newFS(t)
	if err := srv.CreateFile("f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	svc, err := srv.Publish(client)
	if err != nil {
		t.Fatal(err)
	}

	secs, port := forgedCreate(t, client.Space)
	if err := client.Space.Send(&ipc.Message{ID: pager.MsgPagerCreate, RemotePort: svc, Sections: secs}, ipc.SendOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Stat(client, svc, "f"); err != nil {
		t.Fatal(err)
	}
	if registered(srv, port) {
		t.Fatal("forged pager_create registered a memory object")
	}

	// Batched: the container carries the rights, the sub-call names
	// pager_create (and a notification ID).
	secs, port = forgedCreate(t, client.Space)
	notice := ipc.MsgIDPortDeleted
	batch := rpc.NewEnc().U32(2).
		U32(1).U32(uint32(pager.MsgPagerCreate)).Bytes(nil).
		U32(2).U32(uint32(notice)).Bytes(ipc.EncodeName(1))
	resp, err := rpc.NewClient(client.Space, svc, 5*time.Second).Call(rpc.MsgBatch, batch, secs[:3]...)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Release()
	if resp.Status != rpc.StatusOK {
		t.Fatalf("batch status %v", resp.Status)
	}
	d := resp.Dec
	for i, n := 0, int(d.U32()); i < n; i++ {
		seq, st := d.U32(), d.Status()
		d.Bytes()
		if st != rpc.StatusBadID {
			t.Fatalf("batched sub-call %d answered %v, want StatusBadID", seq, st)
		}
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if registered(srv, port) {
		t.Fatal("batched pager_create registered a memory object")
	}
}

// loopProbe records the goroutines that probed calls run on.
type loopProbe struct {
	mu   sync.Mutex
	seen map[string]bool
}

func (p *loopProbe) mark() {
	buf := make([]byte, 64)
	id := strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
	p.mu.Lock()
	if p.seen == nil {
		p.seen = map[string]bool{}
	}
	p.seen[id] = true
	p.mu.Unlock()
}

func (p *loopProbe) goroutines() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.seen)
}

// probedPager records the goroutine of every pager call it forwards.
type probedPager struct {
	pager.Handler
	p *loopProbe
}

func (h probedPager) PagerInit(mo *pager.MemoryObject) {
	h.p.mark()
	h.Handler.PagerInit(mo)
}

func (h probedPager) DataRequest(mo *pager.MemoryObject, off, n uint64, prot vm.Prot) {
	h.p.mark()
	h.Handler.DataRequest(mo, off, n, prot)
}

// TestServesFromOneGoroutine: service calls, the kernel's pager calls
// and lifecycle notifications all run on the server's one loop.
func TestServesFromOneGoroutine(t *testing.T) {
	k := kern.NewKernel(kern.Config{Frames: 256, PageSize: pgsz})
	t.Cleanup(k.Shutdown)
	srv, err := NewServer(k, machine.NewDisk(1024, pgsz, machine.DefaultDiskLatency, k.Clock()))
	if err != nil {
		t.Fatal(err)
	}
	p := &loopProbe{}
	srv.mgr.Handler = probedPager{srv.mgr.Handler, p}
	srv.rpc.Handle(9000, func(*ipc.Message, *rpc.Dec) (*rpc.Reply, error) {
		p.mark()
		return rpc.NewReply(), nil
	})
	go srv.Run()
	t.Cleanup(srv.Stop)
	client := k.NewTask()
	svc, err := srv.Publish(client)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rpc.NewClient(client.Space, svc, 5*time.Second).Invoke(9000, nil); err != nil {
		t.Fatal(err)
	}
	mappedFile(t, srv, []byte("one loop"))
	// A no-senders notification, fed by the same loop.
	port, err := srv.task.Space.AllocatePort()
	if err != nil {
		t.Fatal(err)
	}
	fired := make(chan struct{})
	if err := srv.rpc.Watcher().OnNoSenders(port, func(ipc.Name) { p.mark(); close(fired) }); err != nil {
		t.Fatal(err)
	}
	n, err := srv.task.Space.CopySendRight(client.Space, port)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Space.DeallocatePort(n); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("no-senders notification never served")
	}
	if got := p.goroutines(); got != 1 {
		t.Fatalf("fs served from %d goroutines, want 1", got)
	}
}

// TestStatAllocBudget pins the allocations of a same-host fs Stat round
// trip (client stub, rpc, ipc and the fs handler together): 5 per call,
// since the server loop recycles every request message it serves.
func TestStatAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	_, srv, client := newFS(t)
	if err := srv.CreateFile("f", []byte("alloc budget")); err != nil {
		t.Fatal(err)
	}
	svc, err := srv.Publish(client)
	if err != nil {
		t.Fatal(err)
	}
	stat := func() {
		if _, err := Stat(client, svc, "f"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		stat()
	}
	if avg := testing.AllocsPerRun(200, stat); avg > 6 {
		t.Fatalf("fs Stat round trip allocates %.2f/op, budget is 6", avg)
	}
}
