package rpc

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ipc"
	"repro/internal/lifecycle"
	"repro/internal/obs"
)

// HandlerFunc serves one request. m is the raw message (for port-right
// and out-of-line sections, and for LocalPort-based demux state); d is a
// decoder positioned at the start of the request payload. Returning a
// non-nil error sends an error reply carrying StatusOf(err); returning
// (nil, nil) sends no reply (for one-way notifications).
//
// m, d and the returned Reply are recycled by the server once the
// handler's reply has been sent: a handler must not retain any of them
// past its return (decoded values, names and regions are the caller's
// to keep; the carrier objects are not).
type HandlerFunc func(m *ipc.Message, d *Dec) (*Reply, error)

// Reply is a successful reply under construction: the typed result
// fields (via the embedded Enc) plus any port-right or out-of-line
// sections to carry. The Status byte is prepended by the server; a
// handler never writes it.
type Reply struct {
	Enc
	sections []ipc.Section
	release  []ipc.Name
}

var (
	replyPool = sync.Pool{New: func() any { return new(Reply) }}
	decPool   = sync.Pool{New: func() any { return new(Dec) }}
)

// NewReply returns an empty reply builder. Builders are pooled: the
// server recycles one after sending the reply it describes, so handlers
// on the fast path construct replies without allocating.
func NewReply() *Reply { return replyPool.Get().(*Reply) }

// recycle resets a fully consumed Reply (its payload copied into the
// wire message, its sections sent) and repools it.
func (r *Reply) recycle() {
	r.buf = r.buf[:0]
	for i := range r.sections {
		r.sections[i] = ipc.Section{}
	}
	r.sections = r.sections[:0]
	r.release = r.release[:0]
	replyPool.Put(r)
}

// Carry appends a message section (a port right or an out-of-line
// region) to the reply body.
func (r *Reply) Carry(sec ipc.Section) *Reply {
	r.sections = append(r.sections, sec)
	return r
}

// CarryRelease appends a port-right section whose right is released
// from the server's space once the reply has been sent: the reply's
// in-transit reference keeps the port alive until the client installs
// it, so the server's own name does not linger in the port's sender
// count. Use it for rights the server minted only to hand to this
// client (the netmsg registry hands out proxy rights this way — a
// lingering server-side right would pin a proxy against the no-senders
// garbage collection forever).
func (r *Reply) CarryRelease(sec ipc.Section) *Reply {
	r.sections = append(r.sections, sec)
	if sec.Kind == ipc.PortRightSection && sec.PortName != 0 {
		r.release = append(r.release, sec.PortName)
	}
	return r
}

// Server is a task's one receive loop. It owns a port set holding the
// service port and every port the task adopts (memory objects, ack
// ports, the space's notify port once a watcher is in use), and routes
// each message by arrival port and MsgID:
//
//   - a kernel notification on the notify port goes to the server's
//     lifecycle watcher, and nowhere else;
//   - a request whose MsgID has a Handle entry is answered — with the
//     handler's result, with the handler's error status, or with
//     StatusBadID when no handler is registered (in the seed repo an
//     unknown ID was silently dropped and the client blocked until its
//     timeout);
//   - a one-way message with a HandleOneWay entry (the pager protocol's
//     kernel calls) runs its handler and gets no reply.
//
// Call Run (usually `go srv.Run()`) to serve until Stop.
type Server struct {
	// Space is the server task's port name space.
	Space *ipc.Space
	// Port is the service port name in Space (allocated by NewServer);
	// publish a send right to clients with CopySendRight.
	Port ipc.Name

	// set is the port set Run receives on.
	set ipc.Name

	handlers map[ipc.MsgID]HandlerFunc
	// oneWay holds the HandleOneWay entries: served only when they
	// arrive as messages of their own, never as batch sub-calls.
	oneWay map[ipc.MsgID]func(*ipc.Message)
	// methods holds the per-MsgID metrics bundle of every registered
	// handler, resolved at registration time (same register-before-Run
	// contract as handlers, so serving reads it unsynchronized).
	methods map[ipc.MsgID]*obs.RPCMethod
	met     *obs.RPCMetrics
	workers int
	stopped atomic.Bool

	watcherOnce sync.Once
	watcher     *lifecycle.Watcher
}

// Option configures a Server.
type Option func(*Server)

// WithWorkers makes Run dispatch requests on n concurrent worker
// goroutines instead of inline. Handlers must then be safe for
// concurrent use.
func WithWorkers(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.workers = n
		}
	}
}

// NewServer allocates a port set and a fresh service port in it on
// space, and returns a server demuxing them. Register handlers with
// Handle before Run.
func NewServer(space *ipc.Space, opts ...Option) (*Server, error) {
	set, err := space.AllocatePortSet()
	if err != nil {
		return nil, err
	}
	port, err := space.AllocatePort()
	if err != nil {
		return nil, err
	}
	if err := space.MoveToPortSet(set, port); err != nil {
		return nil, err
	}
	s := &Server{
		Space:    space,
		Port:     port,
		set:      set,
		handlers: make(map[ipc.MsgID]HandlerFunc),
		oneWay:   make(map[ipc.MsgID]func(*ipc.Message)),
		methods:  make(map[ipc.MsgID]*obs.RPCMethod),
		met:      obs.RPCHost(int(space.Host())),
	}
	// Every server answers the batch container: pipelined sub-calls
	// demux through the same handler table as singleton requests.
	s.handlers[MsgBatch] = s.serveBatch
	s.methods[MsgBatch] = obs.RPCMethodMetrics(int(space.Host()), int32(MsgBatch))
	for _, o := range opts {
		o(s)
	}
	return s, nil
}

// Handle registers fn for the given request ID. Registration is not
// synchronized with serving: register every handler before Run.
// Negative IDs belong to the kernel's notifications, which only the
// watcher sees; registering one panics.
func (s *Server) Handle(id ipc.MsgID, fn HandlerFunc) {
	checkID(id)
	s.handlers[id] = fn
	s.methods[id] = obs.RPCMethodMetrics(int(s.Space.Host()), int32(id))
}

// HandleOneWay registers fn for a one-way message ID: fn gets the raw
// message, no reply is ever sent, and the ID is honoured only for a
// message that arrives on its own, never as a batch sub-call. The pager
// protocol's kernel-to-manager calls are registered this way. Same
// register-before-Run contract as Handle.
func (s *Server) HandleOneWay(id ipc.MsgID, fn func(*ipc.Message)) {
	checkID(id)
	s.oneWay[id] = fn
}

func checkID(id ipc.MsgID) {
	if id < 0 {
		panic("rpc: negative message IDs are kernel notifications")
	}
}

// Adopt moves a receive right the server's space holds (a memory
// object port, an acknowledgement port) into the server's port set, so
// its messages reach Run. Safe to call while Run is serving.
func (s *Server) Adopt(n ipc.Name) error { return s.Space.MoveToPortSet(s.set, n) }

// Watcher returns the lifecycle watcher of the server's space. The
// first call moves the space's notify port into the server's set, so
// Run feeds it every kernel notification; use it on at most one server
// per space.
func (s *Server) Watcher() *lifecycle.Watcher {
	s.watcherOnce.Do(func() {
		s.watcher = lifecycle.New(s.Space)
		// Fails only on a dead space, where no notification can come.
		_ = s.Adopt(s.Space.NotifyPort())
	})
	return s.watcher
}

// Run receives on the server's port set and dispatches until Stop (or
// the space's death). With WithWorkers(n) it fans messages out to n
// goroutines and returns only after they drain.
func (s *Server) Run() { _ = s.loop(nil) }

// ServePorts serves this server's port set and every other server's
// service port from ONE loop — the paper's servers' shape of
// multiplexing many client ports through one receive point (§4-§5),
// here letting N services (any mix of protocols with disjoint handler
// tables) share a single goroutine instead of costing a loop each. All
// servers must live on this server's Space. Requests are dispatched to
// the owning server by arrival port, with fair round-robin across the
// ports, so one flooded service cannot starve the rest.
//
// The loop runs on the calling goroutine (usually `go a.ServePorts(b,
// c)`), with this server's WithWorkers setting. A member's Stop takes
// its service port out of the loop; Stop on this server ends the loop,
// and ServePorts then returns nil (or the space's death error).
// Received requests are always served before it returns.
func (s *Server) ServePorts(others ...*Server) error {
	routes := make(map[ipc.Name]*Server, len(others))
	for _, o := range others {
		if o.Space != s.Space {
			return errors.New("rpc: ServePorts servers must share one space")
		}
		if err := s.Adopt(o.Port); err != nil {
			return err
		}
		routes[o.Port] = o
	}
	return s.loop(routes)
}

// loop is the server's receive loop; routes maps the service ports of
// ServePorts members to their servers.
func (s *Server) loop(routes map[ipc.Name]*Server) error {
	serve := func(m *ipc.Message) { s.route(m, routes) }
	if s.workers > 0 {
		pool := make(chan *ipc.Message, s.workers)
		var wg sync.WaitGroup
		for i := 0; i < s.workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for m := range pool {
					s.route(m, routes)
				}
			}()
		}
		defer wg.Wait()
		defer close(pool)
		serve = func(m *ipc.Message) { pool <- m }
	}
	for {
		m, err := s.Space.Receive(s.set, ipc.ReceiveOptions{})
		if err != nil {
			// Stop deallocated the set (or the space died); nothing
			// more can arrive. Messages already received are always
			// served — a dequeued request must never be dropped, or its
			// client would block for its full timeout.
			if s.Stopped() {
				return nil
			}
			return err
		}
		serve(m)
	}
}

// route hands one received message to the watcher or a server's
// handler tables, then recycles it.
func (s *Server) route(m *ipc.Message, routes map[ipc.Name]*Server) {
	switch {
	case m.LocalPort == s.Space.NotifyPort():
		// Kernel notifications are only ever enqueued on the notify
		// port, so only messages from it are taken as notifications: a
		// client sending a notification ID to any other port meets an
		// empty handler slot.
		s.Watcher().Dispatch(m)
	case routes[m.LocalPort] != nil:
		routes[m.LocalPort].serve(m)
	default:
		s.serve(m)
	}
	m.Release()
}

// Stop ends Run: no further requests are accepted (the service port is
// deallocated, so client sends fail fast instead of queueing), the port
// set is destroyed, in-flight handlers finish, and their replies still
// go out on the clients' reply ports.
func (s *Server) Stop() {
	if s.stopped.Swap(true) {
		return
	}
	_ = s.Space.DeallocatePort(s.Port)
	_ = s.Space.DeallocatePort(s.set)
}

// Stopped reports whether Stop has run (directly or through
// StopWhenUnreferenced).
func (s *Server) Stopped() bool { return s.stopped.Load() }

// StopWhenUnreferenced arranges for the server to Stop once every send
// right to its service port is gone: client-held rights, rights in
// transit inside messages, and kernel references (netmsg proxies on
// other hosts) all count; the server's own send right does not. The
// notification arrives through the server's own Watcher. Arm AFTER
// bootstrap is complete: a request armed at zero fires on the next
// transition to zero, so arming before the first CopySendRight-style
// publication is safe — but any bootstrap step that transiently mints
// and releases a right crosses zero and stops the server immediately.
// The netmsg registry's weak check-in is exactly such a step (it
// releases the carried right after recording the port), so check in
// first, then arm.
func (s *Server) StopWhenUnreferenced() error {
	return s.Watcher().OnNoSenders(s.Port, func(ipc.Name) { s.Stop() })
}

// serve runs the handler for one request and sends the reply. The loop
// recycles the request message after serve returns.
func (s *Server) serve(m *ipc.Message) {
	fn, ok := s.handlers[m.ID]
	if !ok {
		if ow := s.oneWay[m.ID]; ow != nil {
			ow(m)
			s.dropReplyRight(m)
			return
		}
		s.replyStatus(m, StatusBadID, nil)
		return
	}
	met := s.methods[m.ID]
	start := time.Now()
	d := decPool.Get().(*Dec)
	d.Reset(m.InlineData())
	r, err := fn(m, d)
	decPool.Put(d)
	if met != nil {
		met.Calls.Inc()
		met.Latency.Record(time.Since(start).Nanoseconds())
	}
	if err != nil {
		s.replyStatus(m, StatusOf(err), nil)
		return
	}
	if r == nil {
		s.dropReplyRight(m)
		return
	}
	s.replyStatus(m, StatusOK, r)
	r.recycle()
}

// dropReplyRight releases the reply right a one-way message's sender
// attached, if any: nothing will be sent on it.
func (s *Server) dropReplyRight(m *ipc.Message) {
	if m.RemotePort != 0 {
		_ = s.Space.DeallocatePort(m.RemotePort)
	}
}

// replyStatus sends [status][result fields][sections] to the request's
// reply port, then drops the server's send right to it. Requests without
// a reply port get no reply (and error statuses are simply dropped, as
// Mach drops replies to one-way messages).
func (s *Server) replyStatus(m *ipc.Message, st Status, r *Reply) {
	if r != nil && len(r.release) > 0 {
		// CarryRelease rights leave the server's space once the reply
		// (whose transit references now hold them) is on its way — or
		// immediately when there is no reply port to carry them to.
		defer func() {
			for _, n := range r.release {
				_ = s.Space.DeallocatePort(n)
			}
		}()
	}
	if m.RemotePort == 0 {
		return
	}
	var body []byte
	var extra []ipc.Section
	if r != nil {
		body = r.Payload()
		extra = r.sections
	}
	rm := ipc.GetMessage()
	rm.ID = m.ID
	rm.RemotePort = m.RemotePort
	// A traced request's reply joins the same trace: the ID is copied
	// before Send so Send never mints a second one, keeping one logical
	// RPC one trace end to end.
	if t := m.Trace(); t != 0 {
		rm.SetTrace(t)
		obs.RecordHop(int32(s.Space.Host()), t, obs.HopReply, int32(m.ID), 0)
	}
	// The status byte and result fields are copied into the reply
	// message's own scratch buffer, which travels (and is recycled)
	// with it — the Reply builder is free for reuse the moment this
	// returns.
	rm.InlineCopy([]byte{byte(st)}, body)
	for i := range extra {
		rm.AppendSection(extra[i])
	}
	// Replies are forced past the backlog: a server must never block on
	// a slow client.
	if err := s.Space.Send(rm, ipc.SendOptions{Force: true}); err != nil {
		// Undeliverable (the client died): Send already disposed of the
		// carried rights, so the message can go straight back.
		rm.Release()
	}
	_ = s.Space.DeallocatePort(m.RemotePort)
}
