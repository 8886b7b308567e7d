package experiments

import (
	"os"
	"strings"
	"testing"
)

func TestRunAll(t *testing.T) {
	for _, f := range []func() Table{E2MessageCopyVsCOW, E3UnixCacheVsMach, E4ArchLatency, E5SharedMemoryLocality, E6Migration, E7CamelotWAL, E8FaultPath, E9Ablations, E10NetmsgCrossHost, E11DurableIO} {
		tb := f()
		tb.Render(os.Stdout)
		switch tb.ID {
		case "E3":
			checkE3(t, tb)
		case "E10":
			checkE10(t, tb)
		}
	}
}

// checkE10 pins the relay claim: over 500 calls a remote caller costs
// exactly 2 remote messages per call (request + reply) whether it holds
// a direct right or goes through the netmsg proxies, the relay adds no
// control traffic, and a same-host caller crosses nothing.
func checkE10(t *testing.T, tb Table) {
	t.Helper()
	want := map[string][2]string{
		"same-host":    {"0", "0"},
		"cross-direct": {"1000", "0"},
		"cross-netmsg": {"1000", "0"},
	}
	remote, ctl := column(t, tb, "remote-msgs"), column(t, tb, "ctl-msgs")
	if len(tb.Rows) != len(want) {
		t.Fatalf("E10 has %d rows, want %d", len(tb.Rows), len(want))
	}
	for _, row := range tb.Rows {
		w, ok := want[row[0]]
		if !ok {
			t.Fatalf("E10 row %q not pinned", row[0])
		}
		if got := [2]string{row[remote], row[ctl]}; got != w {
			t.Errorf("E10 %s remote/control msgs = %s/%s, want %s/%s", row[0], got[0], got[1], w[0], w[1])
		}
	}
}

// checkE3 pins the §9 disk-read counts exactly; they are identical from
// run to run. The buffer cache holds the small tree, only Mach's page
// cache holds the mid-size one (the paper's factor of 10), and both
// thrash on the tree larger than RAM.
func checkE3(t *testing.T, tb Table) {
	t.Helper()
	want := map[string][2]string{
		"fits-buffer-cache": {"64", "64"},
		"fits-RAM-only":     {"5120", "512"},
		"exceeds-RAM":       {"23040", "23040"},
	}
	unix, mach := column(t, tb, "unix-reads"), column(t, tb, "mach-reads")
	if len(tb.Rows) != len(want) {
		t.Fatalf("E3 has %d rows, want %d", len(tb.Rows), len(want))
	}
	for _, row := range tb.Rows {
		w, ok := want[row[0]]
		if !ok {
			t.Fatalf("E3 row %q not pinned", row[0])
		}
		if got := [2]string{row[unix], row[mach]}; got != w {
			t.Errorf("E3 %s unix/mach reads = %s/%s, want %s/%s", row[0], got[0], got[1], w[0], w[1])
		}
	}
}

// column returns the index of the named header.
func column(t *testing.T, tb Table, name string) int {
	t.Helper()
	for i, h := range tb.Headers {
		if h == name {
			return i
		}
	}
	t.Fatalf("%s has no column %q", tb.ID, name)
	return -1
}

// TestE12Smoke runs the scale-out experiment at its minimal
// configuration and requires a loss-free run: every launched session
// resolved its service and completed its calls.
func TestE12Smoke(t *testing.T) {
	t.Setenv("E12_SCALE", "smoke")
	tb := E12ScaleOut()
	tb.Render(os.Stdout)
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(tb.Rows))
	}
	for _, m := range tb.Metrics {
		if !strings.Contains(m, "errors=0") {
			t.Fatalf("E12 smoke run reported session errors: %s", m)
		}
	}
}
