package kern

import (
	"errors"
	"sync"
	"time"

	"repro/internal/ipc"
	"repro/internal/vm"
)

// ErrTaskDead is returned by operations on a terminated task.
var ErrTaskDead = errors.New("kern: task terminated")

// Task is the basic unit of resource allocation (§3.1): a paged virtual
// address space and protected access to system resources — here its port
// name space, its address map, and its threads.
type Task struct {
	// ID is a kernel-unique task identifier.
	ID int
	// Space is the task's port name space.
	Space *ipc.Space
	// Map is the task's address space.
	Map *vm.Map

	k *Kernel

	mu       sync.Mutex
	threads  []*Thread
	dead     bool
	taskPort *ipc.Port
}

// Thread is the basic unit of computation (§3.1): a lightweight process
// operating within a task, sharing the task's address space and
// capabilities. In the simulation a thread is a goroutine bound to its
// task, with suspend/resume gates at its explicit Preempt points.
type Thread struct {
	// Task is the thread's containing task.
	Task *Task

	mu        sync.Mutex
	suspCond  *sync.Cond
	suspended int
	done      chan struct{}
}

// NewTask creates an empty task with a fresh address space and port name
// space.
func (k *Kernel) NewTask() *Task {
	t := &Task{
		Space: ipc.NewSpace(k.host, k.topo),
		Map:   k.VM.NewMap(taskMapLo, taskMapHi),
		k:     k,
	}
	k.mu.Lock()
	k.nextTID++
	t.ID = k.nextTID
	k.tasks[t] = struct{}{}
	k.mu.Unlock()
	return t
}

// Fork creates a child task whose address space is built from this task's
// regions per their inheritance attributes (§3.3). The child's port space
// is fresh (rights travel only in messages).
func (t *Task) Fork() (*Task, error) {
	t.mu.Lock()
	if t.dead {
		t.mu.Unlock()
		return nil, ErrTaskDead
	}
	t.mu.Unlock()
	child := &Task{
		Space: ipc.NewSpace(t.k.host, t.k.topo),
		Map:   t.Map.Fork(),
		k:     t.k,
	}
	t.k.mu.Lock()
	t.k.nextTID++
	child.ID = t.k.nextTID
	t.k.tasks[child] = struct{}{}
	t.k.mu.Unlock()
	return child, nil
}

// Terminate destroys the task: its threads are released, its port space
// destroyed (notifying senders), and its address space deallocated.
func (t *Task) Terminate() {
	t.mu.Lock()
	if t.dead {
		t.mu.Unlock()
		return
	}
	t.dead = true
	threads := t.threads
	t.threads = nil
	tp := t.taskPort
	t.taskPort = nil
	t.mu.Unlock()
	if tp != nil {
		tp.Destroy()
	}
	for _, th := range threads {
		th.Resume() // release suspended threads so they can observe death
	}
	t.Space.Destroy()
	t.Map.Destroy()
	t.k.mu.Lock()
	delete(t.k.tasks, t)
	t.k.mu.Unlock()
}

// Dead reports whether the task has been terminated.
func (t *Task) Dead() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dead
}

// Kernel returns the kernel this task runs on.
func (t *Task) Kernel() *Kernel { return t.k }

// SpawnThread starts fn as a thread of the task and returns its handle.
func (t *Task) SpawnThread(fn func(*Thread)) (*Thread, error) {
	t.mu.Lock()
	if t.dead {
		t.mu.Unlock()
		return nil, ErrTaskDead
	}
	th := &Thread{Task: t, done: make(chan struct{})}
	th.suspCond = sync.NewCond(&th.mu)
	t.threads = append(t.threads, th)
	t.mu.Unlock()
	go func() {
		defer close(th.done)
		fn(th)
	}()
	return th, nil
}

// Join blocks until the thread's function returns.
func (th *Thread) Join() { <-th.done }

// Suspend raises the thread's suspend count; the thread parks at its next
// Preempt point until Resume drops the count to zero. (True asynchronous
// preemption is not possible for a goroutine; this models the
// thread_suspend message of §3.2 at the simulation's control points.)
func (th *Thread) Suspend() {
	th.mu.Lock()
	th.suspended++
	th.mu.Unlock()
}

// Resume lowers the suspend count, releasing the thread at zero.
func (th *Thread) Resume() {
	th.mu.Lock()
	if th.suspended > 0 {
		th.suspended--
	}
	th.suspCond.Broadcast()
	th.mu.Unlock()
}

// Preempt is the thread's cooperative suspension gate: it blocks while
// the suspend count is positive.
func (th *Thread) Preempt() {
	th.mu.Lock()
	for th.suspended > 0 {
		th.suspCond.Wait()
	}
	th.mu.Unlock()
}

// --- Virtual memory system calls (Tables 3-3 and 3-4) --------------------

// VMAllocate allocates zero-filled memory (vm_allocate), at addr or
// anywhere.
func (t *Task) VMAllocate(addr, size uint64, anywhere bool) (uint64, error) {
	return t.Map.Allocate(addr, size, anywhere)
}

// VMDeallocate releases a range (vm_deallocate).
func (t *Task) VMDeallocate(addr, size uint64) error {
	return t.Map.Deallocate(addr, size)
}

// VMProtect sets protection (vm_protect).
func (t *Task) VMProtect(addr, size uint64, setMax bool, prot vm.Prot) error {
	return t.Map.Protect(addr, size, setMax, prot)
}

// VMInherit sets inheritance (vm_inherit).
func (t *Task) VMInherit(addr, size uint64, inh vm.Inherit) error {
	return t.Map.SetInheritance(addr, size, inh)
}

// VMRead reads size bytes of the task's address space (vm_read).
func (t *Task) VMRead(addr, size uint64) ([]byte, error) {
	buf := make([]byte, size)
	if err := t.Map.ReadBytes(addr, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// VMWrite writes into the task's address space (vm_write).
func (t *Task) VMWrite(addr uint64, data []byte) error {
	return t.Map.WriteBytes(addr, data)
}

// VMCopy copies within the task's address space (vm_copy).
func (t *Task) VMCopy(src, size, dst uint64) error {
	return t.Map.Copy(src, size, dst)
}

// VMRegions describes the task's address space (vm_regions).
func (t *Task) VMRegions() []vm.RegionInfo { return t.Map.Regions() }

// VMAllocateWithPager maps a memory object — named by a port right in the
// task's space — into the address space (vm_allocate_with_pager, Table
// 3-4). The object provides the initial data and receives changes.
func (t *Task) VMAllocateWithPager(memObj ipc.Name, objOffset, addr, size uint64, anywhere bool) (uint64, error) {
	port, err := t.Space.Resolve(memObj)
	if err != nil {
		return 0, err
	}
	obj := t.k.Cache.Lookup(port, objOffset+size)
	return t.Map.AllocateWithObject(obj, objOffset, addr, size, anywhere, false)
}

// ReadResident copies len(dst) bytes of a memory object — named by a port
// right in the task's space — from the kernel's page cache, without
// mapping the object or faulting. It reports false, having copied
// nothing, unless every page of the range is resident and valid (see
// vm.System.ReadResident). The first use creates the kernel's object
// structure and sends pager_init, as vm_allocate_with_pager would. Data
// managers call it on the objects they serve, from the loop that also
// answers pager_data_request, which must never fault on its own object.
func (t *Task) ReadResident(memObj ipc.Name, offset uint64, dst []byte) (bool, error) {
	port, err := t.Space.Resolve(memObj)
	if err != nil {
		return false, err
	}
	obj := t.k.Cache.Lookup(port, offset+uint64(len(dst)))
	return t.k.VM.ReadResident(obj, offset, dst), nil
}

// --- IPC conveniences -----------------------------------------------------

// Send is msg_send on the task's port space.
func (t *Task) Send(m *ipc.Message, opts ipc.SendOptions) error {
	return t.Space.Send(m, opts)
}

// Receive is msg_receive on the task's port space.
func (t *Task) Receive(from ipc.Name, opts ipc.ReceiveOptions) (*ipc.Message, error) {
	return t.Space.Receive(from, opts)
}

// RPC is msg_rpc on the task's port space.
func (t *Task) RPC(m *ipc.Message, sendTimeout, rcvTimeout time.Duration) (*ipc.Message, error) {
	return t.Space.RPC(m, sendTimeout, rcvTimeout)
}
