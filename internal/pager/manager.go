package pager

import (
	"sync"
	"time"

	"repro/internal/ipc"
	"repro/internal/rpc"
	"repro/internal/vm"
)

// MemoryObject is a data manager's view of one of its memory objects: the
// port representing the object (held receive), plus — after pager_init or
// pager_create — send rights to the kernel's pager request and name
// ports. When the same object is mapped by several kernels the manager
// sees one MemoryObject per kernel request port, as §3.4.1 specifies.
type MemoryObject struct {
	mgr *Manager

	// Port is the memory object port name in the manager's space.
	Port ipc.Name
	// Request is the pager request port for cache-management calls.
	Request ipc.Name
	// PagerName is the name port the kernel uses in vm_regions output.
	PagerName ipc.Name

	// Tag is free for the handler's use (e.g. the file this object
	// backs).
	Tag any
}

// send transmits a manager-to-kernel call on the request port.
func (mo *MemoryObject) send(id ipc.MsgID, payload []byte) error {
	return mo.mgr.Space.Send(&ipc.Message{
		ID:         id,
		RemotePort: mo.Request,
		Sections:   []ipc.Section{ipc.InlineBytes(payload)},
	}, ipc.SendOptions{})
}

// DataProvided supplies the kernel with object data
// (pager_data_provided) with an initial lock value.
func (mo *MemoryObject) DataProvided(offset uint64, data []byte, lock vm.Prot) error {
	return mo.send(MsgDataProvided, encodePayload(offset, uint64(len(data)), lock, 0, data))
}

// DataLock restricts cache access to the given data (pager_data_lock).
func (mo *MemoryObject) DataLock(offset, length uint64, lock vm.Prot) error {
	return mo.send(MsgDataLock, encodePayload(offset, length, lock, 0, nil))
}

// FlushRequest forces cached data to be invalidated
// (pager_flush_request).
func (mo *MemoryObject) FlushRequest(offset, length uint64) error {
	return mo.send(MsgFlushRequest, encodePayload(offset, length, 0, 0, nil))
}

// CleanRequest forces cached data to be written back
// (pager_clean_request).
func (mo *MemoryObject) CleanRequest(offset, length uint64) error {
	return mo.send(MsgCleanRequest, encodePayload(offset, length, 0, 0, nil))
}

// FlushRequestSync is FlushRequest that blocks until the kernel has
// completed the invalidation (via the MsgLockCompleted acknowledgement).
// It returns the number of pages the kernel wrote back first. Safe to
// call from the manager loop: the acknowledgement is produced by the
// kernel's request-port service thread, which never waits on the manager.
func (mo *MemoryObject) FlushRequestSync(offset, length uint64) (int, error) {
	reply, err := mo.mgr.Space.RPC(&ipc.Message{
		ID:         MsgFlushRequest,
		RemotePort: mo.Request,
		Sections:   []ipc.Section{ipc.InlineBytes(encodePayload(offset, length, 0, 0, nil))},
	}, 10*time.Second, 10*time.Second)
	if err != nil {
		return 0, err
	}
	_, _, _, wrote, _, ok := decodePayload(reply.InlineData())
	if !ok {
		return 0, ipc.ErrInvalidPort
	}
	return int(wrote), nil
}

// FlushRequestAck is FlushRequest with a completion notification: the
// kernel answers with MsgLockCompleted on replyTo once the flush is done,
// its flag byte carrying the number of pages written back first.
// Consistency protocols (§4.2) need this to know when invalidation has
// taken effect.
func (mo *MemoryObject) FlushRequestAck(offset, length uint64, replyTo ipc.Name) error {
	return mo.mgr.Space.Send(&ipc.Message{
		ID:         MsgFlushRequest,
		RemotePort: mo.Request,
		LocalPort:  replyTo,
		Sections:   []ipc.Section{ipc.InlineBytes(encodePayload(offset, length, 0, 0, nil))},
	}, ipc.SendOptions{})
}

// Cache tells the kernel whether it may retain cached data after all
// references are gone (pager_cache).
func (mo *MemoryObject) Cache(mayCache bool) error {
	var f byte
	if mayCache {
		f = 1
	}
	return mo.send(MsgCache, encodePayload(0, 0, 0, f, nil))
}

// DataUnavailable notifies the kernel that no data exists for the region
// (pager_data_unavailable).
func (mo *MemoryObject) DataUnavailable(offset, size uint64) error {
	return mo.send(MsgDataUnavailable, encodePayload(offset, size, 0, 0, nil))
}

// Handler is what a data manager implements: the kernel-to-manager calls
// of Table 3-5, delivered by the Manager's service loop. A call's data
// is valid only until it returns.
type Handler interface {
	// PagerInit is called when a kernel maps the object for the first
	// time (pager_init). mo.Request is valid from here on.
	PagerInit(mo *MemoryObject)
	// DataRequest asks for [offset, offset+length); answer with
	// mo.DataProvided or mo.DataUnavailable (pager_data_request).
	DataRequest(mo *MemoryObject, offset, length uint64, desired vm.Prot)
	// DataWrite returns modified data to the manager
	// (pager_data_write).
	DataWrite(mo *MemoryObject, offset uint64, data []byte)
	// DataUnlock reports that a task needs more access than the
	// manager's lock permits; answer with mo.DataLock
	// (pager_data_unlock).
	DataUnlock(mo *MemoryObject, offset, length uint64, desired vm.Prot)
	// PagerCreate asks this manager (normally only the default pager)
	// to accept a kernel-created object (pager_create).
	PagerCreate(mo *MemoryObject)
	// PortDeath reports destruction of the object's request port: the
	// kernel is done with the object (§3.4.1 shutdown, §4.1
	// port_death).
	PortDeath(mo *MemoryObject)
}

// Manager is a data-manager task's side of the pager protocol: it
// decodes the kernel's calls on the task's memory object ports and hands
// them to a Handler. The calls are one-way handlers on the task's
// rpc.Server — the paper's duality: a memory-object call is an ordinary
// message to an ordinary server — so one receive loop serves them
// together with the task's own service protocol and its lifecycle
// notifications.
type Manager struct {
	// Space is the manager task's port name space.
	Space *ipc.Space
	// Handler receives the decoded pager interface calls.
	Handler Handler

	srv *rpc.Server

	mu        sync.Mutex
	byPort    map[ipc.Name]*MemoryObject // memory object port -> object
	byRequest map[ipc.Name]*MemoryObject // request port -> object
	// createPort is the one port pager_create is honoured on (see
	// AcceptCreates); 0 refuses every pager_create.
	createPort ipc.Name
}

// NewManager builds the manager of a data-manager task on a fresh
// rpc.Server over space, with the pager calls installed. Register the
// task's own services on Server(), then call Run (usually in its own
// goroutine). The space must be live.
func NewManager(space *ipc.Space, h Handler) *Manager {
	srv, err := rpc.NewServer(space)
	if err != nil {
		panic("pager: NewManager: " + err.Error())
	}
	m := &Manager{
		Space:     space,
		Handler:   h,
		srv:       srv,
		byPort:    make(map[ipc.Name]*MemoryObject),
		byRequest: make(map[ipc.Name]*MemoryObject),
	}
	srv.HandleOneWay(MsgPagerInit, m.handleInit)
	srv.HandleOneWay(MsgPagerCreate, m.handleCreate)
	for _, id := range []ipc.MsgID{MsgDataRequest, MsgDataWrite, MsgDataUnlock} {
		srv.HandleOneWay(id, m.handleData)
	}
	return m
}

// Server returns the manager task's receive loop: the rpc.Server whose
// port set holds the task's memory object ports.
func (m *Manager) Server() *rpc.Server { return m.srv }

// AcceptCreates makes port, a receive right in the manager's space, the
// one port pager_create is honoured on, and adopts it into the loop.
// The kernel hands its default pager the boot port this way; a
// pager_create arriving anywhere else (a client forging one at a
// service or object port) is ignored.
func (m *Manager) AcceptCreates(port ipc.Name) error {
	m.mu.Lock()
	m.createPort = port
	m.mu.Unlock()
	return m.srv.Adopt(port)
}

// NewObject allocates a fresh memory object port, adopts it into the
// manager's loop, and registers it. The returned MemoryObject has no
// request port until a kernel maps it (PagerInit). The send right to
// hand to clients is the Port name.
func (m *Manager) NewObject(tag any) (*MemoryObject, error) {
	n, err := m.Space.AllocatePort()
	if err != nil {
		return nil, err
	}
	if err := m.srv.Adopt(n); err != nil {
		return nil, err
	}
	mo := &MemoryObject{mgr: m, Port: n, Tag: tag}
	m.mu.Lock()
	m.byPort[n] = mo
	m.mu.Unlock()
	return mo, nil
}

// RequestPortReady reports whether pager_init has arrived for mo (its
// Request name is set). Safe to call from outside the service loop.
func (m *Manager) RequestPortReady(mo *MemoryObject) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return mo.Request != 0
}

// Object returns the memory object registered under a port name.
func (m *Manager) Object(port ipc.Name) (*MemoryObject, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mo, ok := m.byPort[port]
	return mo, ok
}

// Remove forgets a memory object and deallocates its ports.
func (m *Manager) Remove(mo *MemoryObject) {
	m.mu.Lock()
	delete(m.byPort, mo.Port)
	if mo.Request != 0 {
		delete(m.byRequest, mo.Request)
	}
	m.mu.Unlock()
	_ = m.Space.DeallocatePort(mo.Port)
	if mo.Request != 0 {
		m.srv.Watcher().OnPortDeath(mo.Request, nil)
		_ = m.Space.DeallocatePort(mo.Request)
	}
	if mo.PagerName != 0 {
		_ = m.Space.DeallocatePort(mo.PagerName)
	}
}

// Run serves the manager task (its rpc.Server loop) until Stop or the
// space's death.
func (m *Manager) Run() { m.srv.Run() }

// Stop ends Run and destroys the manager task's space.
func (m *Manager) Stop() {
	m.srv.Stop()
	m.Space.Destroy()
}

// handleData routes pager_data_request, pager_data_write and
// pager_data_unlock to the Handler.
func (m *Manager) handleData(msg *ipc.Message) {
	// pager_data_request and pager_data_unlock identify the calling
	// kernel by its pager request port (Table 3-5); the right travels
	// in the message and resolves to the name installed at pager_init
	// time.
	m.mu.Lock()
	var mo *MemoryObject
	for i := range msg.Sections {
		if msg.Sections[i].Kind == ipc.PortRightSection {
			mo = m.byRequest[msg.Sections[i].PortName]
			break
		}
	}
	if mo == nil {
		mo = m.byPort[msg.LocalPort]
	}
	m.mu.Unlock()
	if mo == nil {
		return
	}
	offset, length, prot, _, data, ok := decodePayload(msg.InlineData())
	if !ok {
		return
	}
	switch msg.ID {
	case MsgDataRequest:
		m.Handler.DataRequest(mo, offset, length, prot)
	case MsgDataWrite:
		m.Handler.DataWrite(mo, offset, data)
	case MsgDataUnlock:
		m.Handler.DataUnlock(mo, offset, length, prot)
	}
}

// watchRequest registers mo's request port for the kernel's port-death
// notification, which the server's loop takes from the notify port only.
func (m *Manager) watchRequest(mo *MemoryObject) {
	m.srv.Watcher().OnPortDeath(mo.Request, m.requestDied)
}

// requestDied is the §4.1 port_death path: the kernel destroyed a
// request port, so it is done with the object.
func (m *Manager) requestDied(dead ipc.Name) {
	m.mu.Lock()
	mo := m.byRequest[dead]
	// Only the request-port registration is dropped here: a
	// pager_data_write queued on the object port may still be in flight
	// (kernel calls are asynchronous), so the object stays registered
	// until the handler Removes it.
	delete(m.byRequest, dead)
	m.mu.Unlock()
	if mo != nil {
		m.Handler.PortDeath(mo)
	}
}

// portRights lists the port-right names a pager message carries.
func portRights(msg *ipc.Message) []ipc.Name {
	var rights []ipc.Name
	for i := range msg.Sections {
		if msg.Sections[i].Kind == ipc.PortRightSection {
			rights = append(rights, msg.Sections[i].PortName)
		}
	}
	return rights
}

// handleCreate processes pager_create, which carries the memory object
// port's receive right (the object is kernel-created) as well as the
// request and name rights. Only the designated create port accepts it.
func (m *Manager) handleCreate(msg *ipc.Message) {
	m.mu.Lock()
	create := m.createPort
	m.mu.Unlock()
	rights := portRights(msg)
	// [object receive right, request right, name right]
	if msg.LocalPort != create || len(rights) < 3 {
		return
	}
	mo := &MemoryObject{mgr: m, Port: rights[0], Request: rights[1], PagerName: rights[2]}
	if err := m.srv.Adopt(mo.Port); err != nil {
		return
	}
	m.mu.Lock()
	m.byPort[mo.Port] = mo
	m.byRequest[mo.Request] = mo
	m.mu.Unlock()
	m.watchRequest(mo)
	m.Handler.PagerCreate(mo)
}

// handleInit processes pager_init: [request right, name right], arrived
// on the memory object port itself.
func (m *Manager) handleInit(msg *ipc.Message) {
	rights := portRights(msg)
	if len(rights) < 2 {
		return
	}
	m.mu.Lock()
	mo := m.byPort[msg.LocalPort]
	if mo == nil {
		m.mu.Unlock()
		return
	}
	if mo.Request != 0 {
		// A second kernel mapping the same object: per §3.4.1, each
		// kernel has distinct request/name ports; track it as a sibling
		// MemoryObject sharing the port and tag.
		mo = &MemoryObject{mgr: m, Port: mo.Port, Tag: mo.Tag}
	}
	mo.Request, mo.PagerName = rights[0], rights[1]
	m.byRequest[mo.Request] = mo
	m.mu.Unlock()
	m.watchRequest(mo)
	m.Handler.PagerInit(mo)
}

// NopHandler is a Handler with empty implementations, for embedding by
// managers that only need part of the interface (the paper's "minimal
// subset" filesystem never sees DataWrite or DataUnlock).
type NopHandler struct{}

// PagerInit implements Handler.
func (NopHandler) PagerInit(*MemoryObject) {}

// DataRequest implements Handler.
func (NopHandler) DataRequest(*MemoryObject, uint64, uint64, vm.Prot) {}

// DataWrite implements Handler.
func (NopHandler) DataWrite(*MemoryObject, uint64, []byte) {}

// DataUnlock implements Handler.
func (NopHandler) DataUnlock(*MemoryObject, uint64, uint64, vm.Prot) {}

// PagerCreate implements Handler.
func (NopHandler) PagerCreate(*MemoryObject) {}

// PortDeath implements Handler.
func (NopHandler) PortDeath(*MemoryObject) {}
