package fabric

import (
	"errors"
	"fmt"
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

// grantCounts renders each host's grants and wakes (rollup plane on).
func grantCounts(f *Fabric) string {
	var b strings.Builder
	rep := f.ObsReport()
	for i, g := range rep.Grants {
		fmt.Fprintf(&b, "%s %d/%d ", rep.Hosts[i], g.Grants, g.Wakes)
	}
	return strings.TrimSpace(b.String())
}

func TestFleetDeterminism(t *testing.T) {
	run := func() (string, string, []core.TraceEvent, []core.TraceEvent) {
		f, _ := echoFleet(t, func(c *Config) {
			c.Trace = true
			c.Loss = []LinkLoss{{From: "srv", To: "cli", Rate: 0.2}}
			c.Pauses = []HostPause{{Host: "srv", From: 100 * 1000, To: 400 * 1000}}
			c.Obs.Rollup = true
		})
		if err := f.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return f.Fingerprint(), grantCounts(f), f.Host("srv").TraceEvents(), f.Host("cli").TraceEvents()
	}
	fp1, n1, s1, c1 := run()
	fp2, n2, s2, c2 := run()
	if fp1 != fp2 || n1 != n2 {
		t.Fatalf("runs differ: %s %q vs %s %q", fp1, n1, fp2, n2)
	}
	// Pinned across commits, not only between two runs of one build: a
	// change to who takes the turn decisions must not change a single one.
	const want = "36e7d254bcbb8400"
	if fp1 != want {
		t.Fatalf("fingerprint %s, want %s: the decision stream changed", fp1, want)
	}
	// grants/wakes per host: the grant count is the decision stream's
	// length; the wakes are the grants that resumed a host's goroutine.
	const wantCounts = "srv 9/5 cli 8/5"
	if n1 != wantCounts {
		t.Fatalf("grants/wakes %q, want %q", n1, wantCounts)
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

// withPause freezes the echo server from 100µs to 2ms.
func withPause(c *Config) {
	c.Pauses = []HostPause{{Host: "srv", From: 100 * 1000, To: 2 * 1000 * 1000}}
}

// withLoss drops the client's data segments at the given rate.
func withLoss(rate float64) func(*Config) {
	return func(c *Config) {
		c.Seed = 42
		c.Loss = []LinkLoss{{From: "cli", To: "srv", Rate: rate}}
	}
}

func TestPauseShiftsWork(t *testing.T) {
	// Unpaused vs paused server: the client's completion time must shift
	// by at least the window width (the server freezes mid-exchange).
	finish := func(pause bool) vtime.Time {
		var mut func(*Config)
		if pause {
			mut = withPause
		}
		f, _ := echoFleet(t, mut)
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

// partitionConfig is a fleet whose client dials through a one-way
// partition that never heals; the dial's error lands in *dialErr.
func partitionConfig(dialErr *error) Config {
	return Config{
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
				_, *dialErr = h.IO.DialTimeout("srv:echo", 10*vtime.Millisecond)
				return nil
			}},
		},
		Partitions: []LinkPartition{{From: "cli", To: "srv", Start: 0, End: vtime.Infinity}},
		Drain:      []string{"cli", "srv"},
	}
}

func TestPermanentPartitionTimesOut(t *testing.T) {
	var dialErr error
	f := mustNew(t, partitionConfig(&dialErr))
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
		f, got := echoFleet(t, withLoss(rate))
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

// TestCachedEffMatchesFresh checks, at every turn decision, that each
// live host's cached eff equals a fresh min(want, NextExpiry()) — the
// value the decision stream was defined over — across loss, finite and
// permanent partitions, a pause, a drain, a body error and a deadlock.
// The check itself must not perturb the run: the fingerprint matches an
// unchecked run's.
func TestCachedEffMatchesFresh(t *testing.T) {
	var dialErr error
	held := func(c *Config) {
		c.Partitions = []LinkPartition{{From: "cli", To: "srv", Start: 0, End: vtime.Time(3 * vtime.Millisecond)}}
	}
	cases := []struct {
		name  string
		build func(t *testing.T) *Fabric
	}{
		{"loss", func(t *testing.T) *Fabric { f, _ := echoFleet(t, withLoss(0.9)); return f }},
		{"partition-held", func(t *testing.T) *Fabric { f, _ := echoFleet(t, held); return f }},
		{"partition-permanent", func(t *testing.T) *Fabric { return mustNew(t, partitionConfig(&dialErr)) }},
		{"pause", func(t *testing.T) *Fabric { f, _ := echoFleet(t, withPause); return f }},
		{"drain", func(t *testing.T) *Fabric { f, _ := drainFleet(t); return f }},
		{"body-error", func(t *testing.T) *Fabric { return mustNew(t, bodyErrorConfig()) }},
		{"deadlock", func(t *testing.T) *Fabric { return mustNew(t, deadlockConfig()) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain := tc.build(t)
			plainErr := plain.Run()
			f := tc.build(t)
			var decisions, stale int
			var first string
			f.beforeDecide = func() {
				decisions++
				for _, h := range f.hosts {
					if h.done {
						continue
					}
					fresh := h.want
					if at, ok := h.Sys.Clock().NextExpiry(); ok && at < fresh {
						fresh = at
					}
					if h.eff != fresh {
						if stale++; first == "" {
							first = fmt.Sprintf("decision %d: host %s eff %d, fresh %d", decisions, h.Name, h.eff, fresh)
						}
					}
				}
			}
			err := f.Run()
			if fmt.Sprint(err) != fmt.Sprint(plainErr) || f.Fingerprint() != plain.Fingerprint() {
				t.Fatalf("checked run diverged: %v %s vs %v %s", err, f.Fingerprint(), plainErr, plain.Fingerprint())
			}
			if decisions == 0 {
				t.Fatal("no turn decision was checked")
			}
			if stale > 0 {
				t.Fatalf("%d stale eff values over %d decisions; first at %s", stale, decisions, first)
			}
		})
	}
}

// TestFNVWordMatchesBytewise checks the zero-byte shortcut against FNV-1a
// over all eight bytes.
func TestFNVWordMatchesBytewise(t *testing.T) {
	ref := func(h, w uint64) uint64 {
		for i := 0; i < 8; i++ {
			h ^= w & 0xff
			h *= fnvPrime
			w >>= 8
		}
		return h
	}
	words := []uint64{0, 1, 0xff, 0x100, 0xffff, doneMark, 1 << 32, 1<<56 - 1, 1 << 56, 1<<63 | 1, ^uint64(0)}
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 1000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		words = append(words, x>>(x%64))
	}
	for _, w := range words {
		if got, want := fnvWord(fnvOffset, w), ref(fnvOffset, w); got != want {
			t.Fatalf("fnvWord(%#x) = %#x, want %#x", w, got, want)
		}
	}
}
