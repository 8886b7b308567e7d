package netmem

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/pager"
	"repro/internal/rpc"
	"repro/internal/vm"
)

// goroutines records the goroutine each probed call runs on.
type goroutines struct {
	mu   sync.Mutex
	seen map[string]bool
}

func (g *goroutines) mark() {
	buf := make([]byte, 64)
	id := strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
	g.mu.Lock()
	g.seen[id] = true
	g.mu.Unlock()
}

// probedPager records the goroutine of the data requests it forwards.
type probedPager struct {
	pager.Handler
	g *goroutines
}

func (h probedPager) DataRequest(mo *pager.MemoryObject, off, n uint64, prot vm.Prot) {
	h.g.mark()
	h.Handler.DataRequest(mo, off, n, prot)
}

// TestServesFromOneGoroutine: service calls, the kernel's pager calls
// and lifecycle notifications all run on the server's one loop.
func TestServesFromOneGoroutine(t *testing.T) {
	k := kern.NewKernel(kern.Config{Frames: 256, PageSize: pgsz})
	t.Cleanup(k.Shutdown)
	srv, err := NewServer(k)
	if err != nil {
		t.Fatal(err)
	}
	g := &goroutines{seen: map[string]bool{}}
	srv.mgr.Handler = probedPager{srv.mgr.Handler, g}
	srv.rpc.Handle(9000, func(*ipc.Message, *rpc.Dec) (*rpc.Reply, error) {
		g.mark()
		return rpc.NewReply(), nil
	})
	go srv.Run()
	t.Cleanup(srv.Stop)

	task := k.NewTask()
	svc, err := srv.Publish(task)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rpc.NewClient(task.Space, svc, 5*time.Second).Invoke(9000, nil); err != nil {
		t.Fatal(err)
	}
	if err := Create(task, svc, "r", pgsz); err != nil {
		t.Fatal(err)
	}
	addr, size, err := Attach(task, svc, "r")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := task.VMRead(addr, size); err != nil {
		t.Fatal(err)
	}
	// A no-senders notification, fed by the same loop.
	fired := make(chan struct{})
	port, err := srv.task.Space.AllocatePort()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.rpc.Watcher().OnNoSenders(port, func(ipc.Name) { g.mark(); close(fired) }); err != nil {
		t.Fatal(err)
	}
	other := k.NewTask()
	n, err := srv.task.Space.CopySendRight(other.Space, port)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Space.DeallocatePort(n); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("no-senders notification never served")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.seen) != 1 {
		t.Fatalf("netmem served from %d goroutines, want 1", len(g.seen))
	}
}
