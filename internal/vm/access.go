package vm

import (
	"time"

	"repro/internal/machine"
)

// This file is the simulated CPU's load/store path. Tasks touch their
// address space through ReadBytes/WriteBytes, which consult the pmap (the
// simulated TLB) and take the machine-independent fault path on a miss or
// protection violation — exactly where real hardware would trap.

// ReadBytes copies len(buf) bytes from the address space starting at addr
// into buf, faulting pages in as needed.
func (m *Map) ReadBytes(addr uint64, buf []byte) error {
	return m.access(addr, buf, ProtRead)
}

// WriteBytes copies data into the address space at addr, faulting and
// copy-on-write-resolving as needed.
func (m *Map) WriteBytes(addr uint64, data []byte) error {
	return m.access(addr, data, ProtWrite)
}

func (m *Map) access(addr uint64, buf []byte, desired Prot) error {
	s := m.sys
	ps := s.PageSize()
	pos := 0
	for pos < len(buf) {
		pageAddr := s.trunc(addr + uint64(pos))
		pageOff := (addr + uint64(pos)) - pageAddr
		n := int(ps - pageOff)
		if n > len(buf)-pos {
			n = len(buf) - pos
		}
		vpage := pageAddr / ps

		s.mu.Lock()
		frame, ok := m.pmap.translate(vpage, desired)
		if ok {
			fb := s.frames.Bytes(frame)
			if p := s.frame2page[frame]; p != nil {
				p.referenced = true
				if desired&ProtWrite != 0 {
					p.dirty = true
				}
			}
			if desired&ProtWrite != 0 {
				copy(fb[pageOff:], buf[pos:pos+n])
			} else {
				copy(buf[pos:pos+n], fb[pageOff:int(pageOff)+n])
			}
			s.mu.Unlock()
			s.charge(n)
			pos += n
			continue
		}
		s.mu.Unlock()
		if err := m.Fault(pageAddr+pageOff, desired); err != nil {
			return err
		}
	}
	return nil
}

// ReadResident copies len(dst) bytes of obj starting at offset straight
// out of the resident-page cache, with no mapping and no fault. It is all
// or nothing: if any page of the range is absent, busy, in error or
// locked against reads, or the object is destroyed or failed, it copies
// nothing, charges nothing and returns false. A hit sets each page's
// reference bit and charges what a load of the same bytes through
// ReadBytes would. A data manager uses it to serve reads of its own
// object from the kernel cache: faulting on its own object instead would
// be the self-paging deadlock of §6.1.
func (s *System) ReadResident(obj *Object, offset uint64, dst []byte) bool {
	ps := s.PageSize()
	end := offset + uint64(len(dst))
	s.mu.Lock()
	if obj.destroyed || obj.failErr != nil || end > obj.size {
		s.mu.Unlock()
		return false
	}
	for page := s.trunc(offset); page < end; page += ps {
		p := s.hash.lookup(obj, page)
		if p == nil || p.busy || p.absent || p.pageError != nil ||
			p.frame == machine.InvalidFrame || p.lock&ProtRead != 0 {
			s.mu.Unlock()
			return false
		}
	}
	pages := 0
	for pos := 0; pos < len(dst); pages++ {
		at := offset + uint64(pos)
		p := s.hash.lookup(obj, s.trunc(at))
		p.referenced = true
		off := int(at % ps)
		pos += copy(dst[pos:], s.frames.Bytes(p.frame)[off:])
	}
	s.mu.Unlock()
	if s.clock != nil {
		s.clock.Advance(time.Duration(pages)*s.model.LocalAccess + time.Duration(len(dst))*s.model.ByteCopy)
	}
	return true
}

// Touch faults every page of [addr, addr+size) with the desired access
// without transferring data — the working-set warm-up used by the
// experiments and by pre-paging migration managers.
func (m *Map) Touch(addr, size uint64, desired Prot) error {
	s := m.sys
	ps := s.PageSize()
	end := s.round(addr + size)
	for a := s.trunc(addr); a < end; a += ps {
		vpage := a / ps
		s.mu.Lock()
		_, ok := m.pmap.translate(vpage, desired)
		if ok {
			s.mu.Unlock()
			s.charge(1)
			continue
		}
		s.mu.Unlock()
		if err := m.Fault(a, desired); err != nil {
			return err
		}
		s.charge(1)
	}
	return nil
}
