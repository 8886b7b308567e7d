package vm

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/machine"
)

// newClockedSystem is a test system that charges a cost model to a
// clock, so ReadResident's charge can be checked exactly.
func newClockedSystem(t *testing.T, frames int) (*System, *machine.Clock, machine.CostModel) {
	t.Helper()
	clock := machine.NewClock()
	model := machine.ModelFor(machine.UMA)
	s := NewSystem(Config{Frames: frames, PageSize: testPageSize, Clock: clock, Model: model})
	t.Cleanup(s.Shutdown)
	return s, clock, model
}

// pageOf returns a page of b's.
func pageOf(b byte) []byte { return bytes.Repeat([]byte{b}, testPageSize) }

// expectMiss checks that ReadResident refuses [off, off+n) of obj without
// copying into dst or advancing the clock.
func expectMiss(t *testing.T, s *System, clock *machine.Clock, obj *Object, off uint64, n int) {
	t.Helper()
	dst := bytes.Repeat([]byte{0xEE}, n)
	before := clock.Now()
	if s.ReadResident(obj, off, dst) {
		t.Fatalf("ReadResident(%d, %d) hit, want miss", off, n)
	}
	if !bytes.Equal(dst, bytes.Repeat([]byte{0xEE}, n)) {
		t.Fatal("a miss copied bytes")
	}
	if d := clock.Now() - before; d != 0 {
		t.Fatalf("a miss charged %v", d)
	}
}

func TestReadResidentHitChargesALoad(t *testing.T) {
	s, clock, model := newClockedSystem(t, testFrames)
	obj := s.NewExternalObject(newFakePager(s), 2*testPageSize)
	s.DataProvided(obj, 0, append(pageOf(0x11), pageOf(0x22)...), ProtNone)

	for _, tc := range []struct {
		off   uint64
		n     int
		pages int
	}{
		{10, 100, 1},
		{testPageSize - 6, 12, 2}, // crosses into the second page
	} {
		dst := make([]byte, tc.n)
		before := clock.Now()
		if !s.ReadResident(obj, tc.off, dst) {
			t.Fatalf("ReadResident(%d, %d) missed resident pages", tc.off, tc.n)
		}
		want := time.Duration(tc.pages)*model.LocalAccess + time.Duration(tc.n)*model.ByteCopy
		if d := clock.Now() - before; d != want {
			t.Fatalf("ReadResident(%d, %d) charged %v, want %v", tc.off, tc.n, d, want)
		}
		for i, b := range dst {
			wantB := byte(0x11)
			if tc.off+uint64(i) >= testPageSize {
				wantB = 0x22
			}
			if b != wantB {
				t.Fatalf("ReadResident(%d, %d) byte %d = %#x, want %#x", tc.off, tc.n, i, b, wantB)
			}
		}
	}
	// The reference bit is set, as a load through a mapping would.
	s.mu.Lock()
	for off := uint64(0); off < 2*testPageSize; off += testPageSize {
		if p := s.hash.lookup(obj, off); !p.referenced {
			t.Errorf("page %d not referenced after a hit", off)
		}
	}
	s.mu.Unlock()
}

func TestReadResidentMisses(t *testing.T) {
	t.Run("absent", func(t *testing.T) {
		s, clock, _ := newClockedSystem(t, testFrames)
		obj := s.NewExternalObject(newFakePager(s), 2*testPageSize)
		expectMiss(t, s, clock, obj, 0, 10)
	})

	t.Run("crosses into a non-resident page", func(t *testing.T) {
		s, clock, _ := newClockedSystem(t, testFrames)
		obj := s.NewExternalObject(newFakePager(s), 2*testPageSize)
		s.DataProvided(obj, 0, pageOf(0x11), ProtNone)
		expectMiss(t, s, clock, obj, testPageSize-6, 12)
	})

	t.Run("busy with an outstanding data request", func(t *testing.T) {
		s, clock, _ := newClockedSystem(t, testFrames)
		fp := newFakePager(s)
		fp.silent = true
		obj := s.NewExternalObject(fp, testPageSize)
		m := s.NewMap(mapLo, mapHi)
		addr, err := m.AllocateWithObject(obj, 0, 0, testPageSize, true, false)
		if err != nil {
			t.Fatal(err)
		}
		faulted := make(chan error, 1)
		go func() { faulted <- m.ReadBytes(addr, make([]byte, 1)) }()
		deadline := time.Now().Add(5 * time.Second)
		for fp.requestCount() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("fault never requested the page")
			}
			time.Sleep(time.Millisecond)
		}
		expectMiss(t, s, clock, obj, 0, 10)
		s.ObjectFailed(obj, nil) // release the faulting reader
		if err := <-faulted; err != ErrMemoryFailure {
			t.Fatalf("fault after failure: %v", err)
		}
	})

	t.Run("evicted by pageout", func(t *testing.T) {
		const frames = 16
		s, clock, _ := newClockedSystem(t, frames)
		obj := s.NewExternalObject(newFakePager(s), testPageSize)
		s.DataProvided(obj, 0, pageOf(0x11), ProtNone)
		// Fill memory with another object's pages until the daemon has
		// reclaimed obj's (oldest, unreferenced) page.
		filler := s.NewExternalObject(newFakePager(s), 8*frames*testPageSize)
		deadline := time.Now().Add(5 * time.Second)
		for off := uint64(0); ; off += testPageSize {
			s.mu.Lock()
			gone := s.hash.lookup(obj, 0) == nil
			s.mu.Unlock()
			if gone {
				break
			}
			if off >= filler.size || time.Now().After(deadline) {
				t.Fatal("pageout never evicted the page")
			}
			s.DataProvided(filler, off, pageOf(0x22), ProtNone)
		}
		if s.Stats().Pageins < 2 {
			t.Fatal("filler pages never arrived")
		}
		expectMiss(t, s, clock, obj, 0, 10)
	})

	t.Run("object destroyed", func(t *testing.T) {
		s, clock, _ := newClockedSystem(t, testFrames)
		obj := s.NewExternalObject(newFakePager(s), testPageSize)
		s.DataProvided(obj, 0, pageOf(0x11), ProtNone)
		s.SetCanCache(obj, false) // unreferenced and uncacheable: terminated
		expectMiss(t, s, clock, obj, 0, 10)
	})
}
