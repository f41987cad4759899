package fabric

import (
	"errors"
	"strings"
	"testing"

	"pthreads/internal/core"
	"pthreads/internal/vtime"
)

// echoFleet builds a two-host fleet: srv echoes one message back to cli.
func echoFleet(t *testing.T, mut func(*Config)) (*Fabric, *int) {
	t.Helper()
	got := new(int)
	cfg := Config{
		Hosts: []HostSpec{
			{Name: "srv", Body: func(h *Host) error {
				l, err := h.IO.Listen("echo", 4)
				if err != nil {
					return err
				}
				c, err := l.Accept()
				if err != nil {
					return err
				}
				n, err := c.Read(512)
				if err != nil {
					return err
				}
				if _, err := c.Write(n); err != nil {
					return err
				}
				return c.Close()
			}},
			{Name: "cli", Body: func(h *Host) error {
				c, err := h.IO.Dial("srv:echo")
				if err != nil {
					return err
				}
				if _, err := c.Write(256); err != nil {
					return err
				}
				for *got < 256 {
					n, err := c.Read(256)
					if err != nil {
						return err
					}
					*got += n
				}
				return c.Close()
			}},
		},
		Drain: []string{"cli"},
	}
	if mut != nil {
		mut(&cfg)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f, got
}

func TestTwoHostEcho(t *testing.T) {
	f, got := echoFleet(t, nil)
	if err := f.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if *got != 256 {
		t.Fatalf("echoed %d bytes, want 256", *got)
	}
	// Both stacks saw traffic: the client's bytes went out its NIC, the
	// server's stats show the accept.
	cs := f.Host("cli").IO.Stack().Stats()
	ss := f.Host("srv").IO.Stack().Stats()
	if cs.Dials != 1 || ss.Accepted != 1 {
		t.Fatalf("dials=%d accepted=%d, want 1/1", cs.Dials, ss.Accepted)
	}
	if cs.BytesSent != 256 || ss.BytesSent != 256 {
		t.Fatalf("bytes cli=%d srv=%d, want 256/256", cs.BytesSent, ss.BytesSent)
	}
}

func TestFleetDeterminism(t *testing.T) {
	run := func() (string, []core.TraceEvent, []core.TraceEvent) {
		f, _ := echoFleet(t, func(c *Config) {
			c.Trace = true
			c.Loss = []LinkLoss{{From: "srv", To: "cli", Rate: 0.2}}
			c.Pauses = []HostPause{{Host: "srv", From: 100 * 1000, To: 400 * 1000}}
		})
		if err := f.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return f.Fingerprint(), f.Host("srv").TraceEvents(), f.Host("cli").TraceEvents()
	}
	fp1, s1, c1 := run()
	fp2, s2, c2 := run()
	if fp1 != fp2 {
		t.Fatalf("fingerprints differ: %s vs %s", fp1, fp2)
	}
	// Pinned across commits, not only between two runs of one build: a
	// change to who takes the turn decisions must not change a single one.
	const want = "36e7d254bcbb8400"
	if fp1 != want {
		t.Fatalf("fingerprint %s, want %s: the decision stream changed", fp1, want)
	}
	for name, pair := range map[string][2][]core.TraceEvent{"srv": {s1, s2}, "cli": {c1, c2}} {
		a, b := pair[0], pair[1]
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d events", name, len(a), len(b))
		}
		for i := range a {
			if a[i].At != b[i].At || a[i].Kind != b[i].Kind || a[i].Obj != b[i].Obj || a[i].Arg != b[i].Arg {
				t.Fatalf("%s: event %d differs: %+v vs %+v", name, i, a[i], b[i])
			}
		}
	}
}

// acceptForever is a host body that parks on a listener nobody dials.
func acceptForever(addr string) func(h *Host) error {
	return func(h *Host) error {
		l, err := h.IO.Listen(addr, 1)
		if err != nil {
			return err
		}
		_, err = l.Accept()
		return err
	}
}

// deadlockConfig is a fleet in which every host waits forever.
func deadlockConfig() Config {
	return Config{Hosts: []HostSpec{
		{Name: "a", Body: acceptForever("x")},
		{Name: "b", Body: acceptForever("y")},
	}}
}

// drainFleet is echoFleet whose server, after the echo, keeps waiting for
// a connection that never comes: the client's drain must kill it.
func drainFleet(t *testing.T) (*Fabric, *int) {
	return echoFleet(t, func(c *Config) {
		body := c.Hosts[0].Body
		c.Hosts[0].Body = func(h *Host) error {
			if err := body(h); err != nil {
				return err
			}
			return acceptForever("echo2")(h)
		}
	})
}

var errBoom = errors.New("boom")

func mustNew(t *testing.T, cfg Config) *Fabric {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

// bodyErrorConfig is a fleet whose host a fails at once while b waits.
func bodyErrorConfig() Config {
	return Config{Hosts: []HostSpec{
		{Name: "a", Body: func(h *Host) error { return errBoom }},
		{Name: "b", Body: acceptForever("x")},
	}}
}

func TestFleetDeadlock(t *testing.T) {
	err := mustNew(t, deadlockConfig()).Run()
	if err == nil || !strings.Contains(err.Error(), "fleet deadlock") {
		t.Fatalf("want fleet deadlock, got %v", err)
	}
	if !strings.Contains(err.Error(), "host a") || !strings.Contains(err.Error(), "host b") {
		t.Fatalf("deadlock report misses a host: %v", err)
	}
}

func TestDrainTearsDownServer(t *testing.T) {
	// The server accepts forever; Drain on the client ends the fleet.
	f, got := drainFleet(t)
	if err := f.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if *got != 256 {
		t.Fatalf("echoed %d bytes, want 256", *got)
	}
}

func TestHostBodyErrorFailsFleet(t *testing.T) {
	err := mustNew(t, bodyErrorConfig()).Run()
	if err == nil || !strings.Contains(err.Error(), "host a") || !errors.Is(err, errBoom) {
		t.Fatalf("want wrapped boom from host a, got %v", err)
	}
}

func TestPauseShiftsWork(t *testing.T) {
	// Unpaused vs paused server: the client's completion time must shift
	// by at least the window width (the server freezes mid-exchange).
	finish := func(pause bool) vtime.Time {
		f, _ := echoFleet(t, func(c *Config) {
			if pause {
				c.Pauses = []HostPause{{Host: "srv", From: 100 * 1000, To: 2 * 1000 * 1000}}
			}
		})
		if err := f.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return f.Host("cli").Sys.Clock().Now()
	}
	base := finish(false)
	paused := finish(true)
	if paused < base.Add(vtime.Duration(1*1000*1000)) {
		t.Fatalf("pause did not delay the exchange: base %v, paused %v", base, paused)
	}
}

func TestPermanentPartitionTimesOut(t *testing.T) {
	var dialErr error
	cfg := Config{
		Hosts: []HostSpec{
			{Name: "srv", Body: func(h *Host) error {
				l, err := h.IO.Listen("echo", 4)
				if err != nil {
					return err
				}
				_, err = l.AcceptTimeout(50 * vtime.Millisecond)
				return nil // timeout expected: the SYN never arrives
			}},
			{Name: "cli", Body: func(h *Host) error {
				_, dialErr = h.IO.DialTimeout("srv:echo", 10*vtime.Millisecond)
				return nil
			}},
		},
		Partitions: []LinkPartition{{From: "cli", To: "srv", Start: 0, End: vtime.Infinity}},
		Drain:      []string{"cli", "srv"},
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := f.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if e, ok := core.AsErrno(dialErr); !ok || e != core.ETIMEDOUT {
		t.Fatalf("dial through permanent partition: got %v, want ETIMEDOUT", dialErr)
	}
}

func TestCrossHostRefused(t *testing.T) {
	var dialErr error
	cfg := Config{
		Hosts: []HostSpec{
			// The machine must be up for its kernel to refuse the SYN —
			// a host whose body has completed is down, and dialing a down
			// host hangs (timeout territory), exactly like real TCP. Park
			// the body on an unrelated listener; the drain tears it down.
			{Name: "srv", Body: acceptForever("other")},
			{Name: "cli", Body: func(h *Host) error {
				_, dialErr = h.IO.Dial("srv:nope")
				return nil
			}},
		},
		Drain: []string{"cli"},
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := f.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if e, ok := core.AsErrno(dialErr); !ok || e != core.ECONNREFUSED {
		t.Fatalf("dial to missing remote listener: got %v, want ECONNREFUSED", dialErr)
	}
}

func TestLossDelaysButDelivers(t *testing.T) {
	// With heavy loss on the data path the echo still completes (RTO
	// redelivery), later than the clean run.
	finish := func(rate float64) vtime.Time {
		f, got := echoFleet(t, func(c *Config) {
			c.Seed = 42
			c.Loss = []LinkLoss{{From: "cli", To: "srv", Rate: rate}}
		})
		if err := f.Run(); err != nil {
			t.Fatalf("Run (rate %v): %v", rate, err)
		}
		if *got != 256 {
			t.Fatalf("echoed %d bytes, want 256", *got)
		}
		return f.Host("cli").Sys.Clock().Now()
	}
	clean := finish(0)
	lossy := finish(0.9)
	if lossy <= clean {
		t.Fatalf("loss did not delay delivery: clean %v, lossy %v", clean, lossy)
	}
}
