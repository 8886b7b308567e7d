package vm

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/machine"
)

// cowWindow holds a copy-on-write fault inside the window where step 3
// waits for a frame with the system lock released. An external object's
// page 0 (0x5A bytes) is resident and mapped copy-on-write at addr; the
// pageout daemon is stopped, so the test alone decides when pageout
// runs; every free frame above the reserve is held by the test. A write
// fault is started and cowWindow returns once its placeholder page in
// the shadow object is busy, that is, once the fault waits in
// allocFrameLocked. release hands the held frames back; done delivers
// the fault's result (a panic is reported as an error).
func cowWindow(t *testing.T) (s *System, m *Map, fp *fakePager, obj *Object, addr uint64, release func(), done <-chan error) {
	t.Helper()
	s = NewSystem(Config{Frames: 8, PageSize: testPageSize, FreeTarget: 4, Reserved: 2})
	s.Shutdown()
	m = s.NewMap(mapLo, mapHi)
	fp = newFakePager(s)
	fp.seed(0, 0x5A)
	obj = s.NewExternalObject(fp, testPageSize)
	addr, err := m.AllocateWithObject(obj, 0, 0, testPageSize, true, true)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if err := m.ReadBytes(addr, b[:]); err != nil {
		t.Fatal(err)
	}

	s.mu.Lock()
	var held []machine.Frame
	for s.frames.FreeFrames() > s.reserved {
		f, _ := s.frames.Alloc()
		held = append(held, f)
	}
	s.mu.Unlock()
	release = func() {
		s.mu.Lock()
		for _, f := range held {
			s.frames.Free(f)
		}
		s.cond.Broadcast()
		s.mu.Unlock()
	}

	errc := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				s.mu.Unlock() // the copy panicked under the system lock
				errc <- fmt.Errorf("fault panicked: %v", r)
			}
		}()
		errc <- m.Fault(addr, ProtWrite)
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		m.mu.Lock()
		e := m.lookupEntry(addr)
		first, off := e.object, e.offset
		m.mu.Unlock()
		s.mu.Lock()
		p := s.hash.lookup(first, off)
		waiting := first != obj && p != nil && p.busy
		s.mu.Unlock()
		if waiting {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the write fault never waited for a frame")
		}
		time.Sleep(time.Millisecond)
	}
	return s, m, fp, obj, addr, release, errc
}

// TestCOWCopySurvivesPageoutWhileWaiting: pageout running while a COW
// fault waits for a frame must not evict the ancestor page the fault is
// about to copy (it used to, and the copy read frame -1).
func TestCOWCopySurvivesPageoutWhileWaiting(t *testing.T) {
	s, m, _, _, addr, release, done := cowWindow(t)
	s.balance()
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if err := m.ReadBytes(addr, b[:]); err != nil || b[0] != 0x5A {
		t.Fatalf("copied page reads %#x (err %v), want 0x5a", b[0], err)
	}
}

// TestCOWFaultRetriesWhenAncestorFlushed: if the ancestor page is freed
// anyway while the fault waits (here the manager flushes it), the fault
// drops its placeholder and starts over, paging the data in again.
func TestCOWFaultRetriesWhenAncestorFlushed(t *testing.T) {
	s, m, fp, obj, addr, release, done := cowWindow(t)
	s.FlushRequest(obj, 0, testPageSize)
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if err := m.ReadBytes(addr, b[:]); err != nil || b[0] != 0x5A {
		t.Fatalf("copied page reads %#x (err %v), want 0x5a", b[0], err)
	}
	if n := fp.requestCount(); n != 2 {
		t.Fatalf("pager requests %d, want 2 (the retry pages the data in again)", n)
	}
}
