package agora

import (
	"runtime"
	"strings"
	"testing"
)

// TestBrokerServesFromOneGoroutine: a broker armed to retire on
// no-senders still runs one goroutine — its notifications arrive through
// the broker's own loop, not a watcher loop beside it.
func TestBrokerServesFromOneGoroutine(t *testing.T) {
	kernels, board := newBoard(t, 1, 8)
	if err := board.RetireBrokerWhenUnreferenced(); err != nil {
		t.Fatal(err)
	}
	agentTask := kernels[0].NewTask()
	bp, err := board.PublishBroker(agentTask)
	if err != nil {
		t.Fatal(err)
	}
	if err := JoinRemote(agentTask, bp).Post(Hypothesis{Score: 1, Text: "one loop"}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	// newBoard, the test helper, starts the netmem server's loop.
	n := strings.Count(stacks, "created by repro/internal/agora.") -
		strings.Count(stacks, "created by repro/internal/agora.newBoard")
	if n != 1 {
		t.Fatalf("agora runs %d goroutines, want 1 (the broker loop)", n)
	}
}
