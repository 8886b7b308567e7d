package experiments

import (
	"fmt"
	"time"

	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/netmsg"
	"repro/internal/obs"
	"repro/internal/rpc"
)

// E10NetmsgCrossHost measures the cost of location transparency: one
// typed RPC echo service called (a) from its own host, (b) from a
// remote host through a privileged direct right — the kernel shortcut a
// name server replaces — and (c) from a remote host through a netmsg
// proxy, the store-and-forward relay that makes the service reachable
// by name. The delta between (b) and (c) is the price of the relay
// hops; between (a) and either remote path, the price of the wire.
func E10NetmsgCrossHost() Table {
	t := Table{
		ID:         "E10",
		Title:      "cross-host RPC: direct vs netmsg proxy relay (NORMA, 2 hosts)",
		PaperClaim: "\"a port ... can be used by processes on different machines through user-state network message servers\" (§3.2)",
		Headers:    []string{"path", "calls", "sim-ms", "us/call", "local-msgs", "remote-msgs", "remote-KB", "ctl-msgs"},
	}
	const (
		calls          = 500
		msgEcho        = ipc.MsgID(9900)
		payload        = 64
		serverHost     = 0
		remoteHost     = 1
		clientOnServer = "same-host"
	)
	for _, path := range []string{clientOnServer, "cross-direct", "cross-netmsg"} {
		clock := machine.NewClock()
		topo := machine.NewTopology(machine.ModelFor(machine.NORMA), clock)
		net := netmsg.NewNetwork()
		mk := func(h machine.HostID) *kern.Kernel {
			return kern.NewKernel(kern.Config{
				Host: h, Frames: 256, PageSize: 4096,
				Clock: clock, Topo: topo, NetMsg: net,
			})
		}
		k0, k1 := mk(serverHost), mk(remoteHost)

		server := k0.NewTask()
		srv, err := rpc.NewServer(server.Space)
		if err != nil {
			panic(err)
		}
		srv.Handle(msgEcho, func(m *ipc.Message, d *rpc.Dec) (*rpc.Reply, error) {
			b := d.Bytes()
			if err := d.Err(); err != nil {
				return nil, err
			}
			r := rpc.NewReply()
			r.Bytes(b)
			return r, nil
		})
		go srv.Run()

		var client *kern.Task
		var svc ipc.Name
		switch path {
		case clientOnServer:
			client = k0.NewTask()
			svc, err = server.Space.CopySendRight(client.Space, srv.Port)
		case "cross-direct":
			client = k1.NewTask()
			svc, err = server.Space.CopySendRight(client.Space, srv.Port)
		case "cross-netmsg":
			client = k1.NewTask()
			var boot ipc.Name
			boot, err = k0.NetMsg().Publish(server.Space)
			if err == nil {
				err = netmsg.CheckIn(server.Space, boot, "echo", srv.Port)
			}
			if err == nil {
				boot, err = k1.NetMsg().Publish(client.Space)
			}
			if err == nil {
				svc, err = netmsg.LookUp(client.Space, boot, "echo")
			}
		}
		if err != nil {
			panic(err)
		}

		c := rpc.NewClient(client.Space, svc, 30*time.Second)
		req := rpc.NewEnc().Bytes(make([]byte, payload))
		// One warm-up call so lazy setup (proxy threads, reply-port
		// pool) is excluded from the measured window.
		if _, err := c.Invoke(msgEcho, req); err != nil {
			panic(err)
		}
		topo.ResetStats()
		before := obs.Default().Snapshot()
		start := clock.Now()
		for i := 0; i < calls; i++ {
			if _, err := c.Invoke(msgEcho, req); err != nil {
				panic(err)
			}
		}
		elapsed := clock.Now() - start
		st := topo.Stats()
		d := obs.Default().Snapshot().Diff(before)
		t.Metrics = append(t.Metrics, fmt.Sprintf(
			"%s: ipc sends host0=%d host1=%d; echo calls host0=%d; netmsg msgs 1→0=%d 0→1=%d (%.1f KB out)",
			path,
			d.Counters["host0.ipc.sends"], d.Counters["host1.ipc.sends"],
			d.Counters[fmt.Sprintf("host0.rpc.msg%d.calls", msgEcho)],
			d.Counters["host1.netmsg.peer0.msgs"], d.Counters["host0.netmsg.peer1.msgs"],
			float64(d.Counters["host1.netmsg.peer0.bytes"])/1024))
		t.Rows = append(t.Rows, []string{
			path,
			fmt.Sprintf("%d", calls),
			ms(elapsed),
			us(elapsed / calls),
			fmt.Sprintf("%d", st.LocalMessages),
			fmt.Sprintf("%d", st.RemoteMessages),
			fmt.Sprintf("%.1f", float64(st.RemoteBytes)/1024),
			fmt.Sprintf("%d", controlMsgs(d)),
		})

		srv.Stop()
		k1.Shutdown()
		k0.Shutdown()
	}
	t.Notes = append(t.Notes,
		"cross-netmsg pays one extra local hop per leg (sender -> proxy queue) plus the forwarder's remote hop; cross-direct is the privileged baseline netmsg makes unnecessary",
		"message counts are per 500 calls: 2 remote messages per call remotely (request + reply), 0 same-host",
		"ctl-msgs is netmsg protocol traffic inside the window: 0, since the reply port's reverse proxy is set up by the request carrying it and its sender-count returns ride the replies")
	return t
}
