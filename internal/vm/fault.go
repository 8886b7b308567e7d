package vm

import (
	"time"

	"repro/internal/machine"
)

// Fault is the Mach page fault handler, "the hub of the Mach virtual
// memory system" (§5.5). It is called when the simulated hardware
// references a page with no valid mapping or with a protection violation,
// and performs the paper's steps: validity and protection lookup in the
// task address map, page lookup in the virtual-to-physical table (asking
// the data manager for absent data), copy-on-write resolution, and
// finally hardware validation via the pmap.
//
// Everything except the pmap update is machine-independent.
func (m *Map) Fault(addr uint64, desired Prot) error {
	if desired == ProtNone {
		desired = ProtRead
	}
	for {
		retry, err := m.faultOnce(addr, desired)
		if err != nil {
			return err
		}
		if !retry {
			return nil
		}
	}
}

// resolution is the address-map half of a fault: where the data lives.
type resolution struct {
	firstObj  *Object
	firstOff  uint64
	entryProt Prot
	readOnly  bool   // install read-only even if entry allows writes (COW)
	gen       uint64 // the map's gen when the entry was looked up
}

// resolve performs fault step 1: validity and protection, yielding the
// first object of the shadow chain. For write faults on copy-on-write
// entries it interposes the shadow object.
func (m *Map) resolve(addr uint64, desired Prot) (resolution, error) {
	pageAddr := m.sys.trunc(addr)
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.lookupEntry(addr)
	if e == nil {
		return resolution{}, ErrInvalidAddress
	}
	if !e.prot.Allows(desired) {
		return resolution{}, ErrProtection
	}
	oe := e
	var sm *shareMap
	if e.sharing != nil {
		sm = e.sharing
		sm.mu.Lock()
		defer sm.mu.Unlock()
		oe = nil
		for _, ie := range sm.entries {
			if ie.start <= addr && addr < ie.end {
				oe = ie
				break
			}
		}
		if oe == nil {
			return resolution{}, ErrInvalidAddress
		}
	}
	if desired&ProtWrite != 0 && oe.needsCopy {
		// Interpose a shadow object: the entry's reference to the
		// original moves into the shadow chain.
		oe.object = m.sys.shadowObject(oe.object, oe.object.size)
		oe.needsCopy = false
	}
	return resolution{
		firstObj:  oe.object,
		firstOff:  oe.offset + (pageAddr - oe.start),
		entryProt: e.prot,
		readOnly:  oe.needsCopy,
		gen:       m.gen,
	}, nil
}

// faultOnce runs one attempt of the fault pipeline. retry is true when
// the attempt blocked (busy page, pager wait, unlock wait) and the whole
// fault must be re-driven from the address map.
func (m *Map) faultOnce(addr uint64, desired Prot) (retry bool, err error) {
	s := m.sys
	ps := s.PageSize()
	pageAddr := s.trunc(addr)
	vpage := pageAddr / ps

	res, err := m.resolve(addr, desired)
	if err != nil {
		return false, err
	}

	s.mu.Lock()
	s.stats.Faults++

	// Step 2: page lookup, walking the shadow chain.
	obj, off := res.firstObj, res.firstOff
	var p *Page
	for {
		p = s.pageLookup(obj, off)
		if p != nil {
			if p.pageError != nil {
				ferr := p.pageError
				s.freePageLocked(p)
				s.mu.Unlock()
				return false, ferr
			}
			if p.busy {
				s.cond.Wait()
				s.mu.Unlock()
				return true, nil
			}
			break
		}
		if obj.failErr != nil {
			ferr := obj.failErr
			s.mu.Unlock()
			return false, ferr
		}
		if obj.pager != nil && !obj.destroyed {
			return true, m.faultPageIn(obj, off, desired)
		}
		if obj.shadow != nil {
			off += obj.shadowOffset
			obj = obj.shadow
			continue
		}
		// No object in the chain has the data and the bottom has no
		// pager: zero-fill on demand, at the first object.
		p = s.pageInsert(res.firstObj, res.firstOff)
		p.busy = true
		f := s.allocFrameLocked(false)
		s.assignFrameLocked(p, f)
		s.frames.Zero(f)
		p.busy = false
		s.stats.ZeroFills++
		s.chargeCopyLocked(int(ps))
		s.cond.Broadcast()
		obj, off = res.firstObj, res.firstOff
		break
	}

	// Step: data-manager lock check (pager_data_unlock round).
	needed := desired
	if obj != res.firstObj {
		needed = ProtRead // the ancestor page is only read
	}
	if p.lock&needed != 0 {
		return true, m.faultUnlock(obj, off, p, needed)
	}

	// Step 3: copy-on-write resolution — the page lives in an ancestor
	// and the task wants to write: copy it into the first object.
	mapProt := res.entryProt
	if obj != res.firstObj {
		if desired&ProtWrite != 0 {
			np := s.pageInsert(res.firstObj, res.firstOff)
			np.busy = true
			// allocFrameLocked may wait with s.mu released: pin the
			// ancestor page so pageout leaves it resident meanwhile.
			p.wired++
			f := s.allocFrameLocked(false)
			p.wired--
			s.assignFrameLocked(np, f)
			if p.frame == machine.InvalidFrame {
				// Freed anyway (flushed by its manager, or its
				// object terminated): drop the placeholder and
				// re-drive the fault.
				np.busy = false
				s.freePageLocked(np)
				s.mu.Unlock()
				return true, nil
			}
			copy(s.frames.Bytes(f), s.frames.Bytes(p.frame))
			np.busy = false
			np.dirty = true
			s.stats.CowFaults++
			s.chargeCopyLocked(int(ps))
			s.activateLocked(np)
			s.cond.Broadcast()
			p = np
			obj = res.firstObj
		} else {
			// Map the ancestor's page read-only so a later write
			// faults and copies.
			mapProt &^= ProtWrite
		}
	}
	if res.readOnly {
		mapProt &^= ProtWrite
	}
	mapProt &^= p.lock

	// Step 4/5: reference bits and hardware validation. If the map
	// withdrew translations since step 1 (the range was deallocated,
	// reused or write-protected), what step 1 found may be stale:
	// re-drive the fault from the address map.
	if m.gen != res.gen {
		s.mu.Unlock()
		return true, nil
	}
	p.referenced = true
	if desired&ProtWrite != 0 {
		p.dirty = true
	}
	s.activateLocked(p)
	m.pmap.enter(vpage, p.frame, mapProt)
	s.mu.Unlock()
	return false, nil
}

// faultPageIn issues pager_data_request for an absent page and waits for
// pager_data_provided (or pager_data_unavailable), honouring the memory
// failure policy of §6.2.1. Called with the system lock held; returns
// with it released.
func (m *Map) faultPageIn(obj *Object, off uint64, desired Prot) error {
	s := m.sys
	ps := s.PageSize()
	p := s.pageInsert(obj, off)
	p.busy, p.absent = true, true
	pager := obj.pager
	s.mu.Unlock()

	pager.DataRequest(obj, off, ps, desired)

	var deadline time.Time
	s.mu.Lock()
	if s.fault.Timeout > 0 {
		deadline = time.Now().Add(s.fault.Timeout)
	}
	for p.absent && p.pageError == nil {
		if s.waitCondLocked(deadline) {
			continue
		}
		// Timed out: the data manager did not return data. Abort the
		// memory request or substitute zero-filled memory.
		if !p.absent || p.pageError != nil {
			break
		}
		if s.fault.ZeroFillOnTimeout {
			f := s.allocFrameLocked(false)
			s.assignFrameLocked(p, f)
			s.frames.Zero(f)
			p.busy, p.absent = false, false
			p.lock = ProtNone
			s.stats.ZeroFills++
			s.activateLocked(p)
			s.cond.Broadcast()
			break
		}
		p.pageError = ErrMemoryFailure
		p.busy = false
		s.cond.Broadcast()
		break
	}
	s.mu.Unlock()
	return nil
}

// faultUnlock issues pager_data_unlock and waits for the manager to
// change the page's lock (or flush the page). Called with the system
// lock held; returns with it released.
func (m *Map) faultUnlock(obj *Object, off uint64, p *Page, needed Prot) error {
	s := m.sys
	ps := s.PageSize()
	s.stats.UnlockWaits++
	pager := obj.pager
	s.mu.Unlock()
	if pager != nil {
		pager.DataUnlock(obj, off, ps, needed)
	}

	var deadline time.Time
	s.mu.Lock()
	if s.fault.Timeout > 0 {
		deadline = time.Now().Add(s.fault.Timeout)
	}
	for s.hash.lookup(obj, off) == p && p.lock&needed != 0 && p.pageError == nil {
		if !s.waitCondLocked(deadline) {
			s.mu.Unlock()
			return ErrMemoryFailure
		}
	}
	s.mu.Unlock()
	return nil
}
