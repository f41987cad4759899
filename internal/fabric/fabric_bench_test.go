package fabric

import "testing"

// pingPongFleet is a two-host fleet that bounces one byte n times over a
// single connection: every round trip costs a fixed handful of turn
// decisions, so the run's host time is dominated by the grant path.
func pingPongFleet(b *testing.B, n int, obs ObsConfig) *Fabric {
	cfg := Config{
		Hosts: []HostSpec{
			{Name: "srv", Body: func(h *Host) error {
				l, err := h.IO.Listen("pong", 1)
				if err != nil {
					return err
				}
				c, err := l.Accept()
				if err != nil {
					return err
				}
				for i := 0; i < n; i++ {
					if _, err := c.Read(1); err != nil {
						return err
					}
					if _, err := c.Write(1); err != nil {
						return err
					}
				}
				return c.Close()
			}},
			{Name: "cli", Body: func(h *Host) error {
				c, err := h.IO.Dial("srv:pong")
				if err != nil {
					return err
				}
				for i := 0; i < n; i++ {
					if _, err := c.Write(1); err != nil {
						return err
					}
					if _, err := c.Read(1); err != nil {
						return err
					}
				}
				return c.Close()
			}},
		},
		Drain: []string{"cli"},
		Obs:   obs,
	}
	f, err := New(cfg)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	return f
}

// BenchmarkFleetGrant reports the fabric's host cost per turn decision
// (ns/grant) on a two-host ping-pong, one round trip per op, and the
// share of grants that resumed a host's goroutine (wakes/grant). The
// counts come from a second, identical run with the rollup plane on —
// the plane never perturbs the schedule, so they are exact for the
// timed run, which carries no observability overhead.
func BenchmarkFleetGrant(b *testing.B) {
	b.StopTimer()
	f := pingPongFleet(b, b.N, ObsConfig{})
	b.StartTimer()
	if err := f.Run(); err != nil {
		b.Fatalf("Run: %v", err)
	}
	b.StopTimer()
	counted := pingPongFleet(b, b.N, ObsConfig{Rollup: true})
	if err := counted.Run(); err != nil {
		b.Fatalf("counting Run: %v", err)
	}
	if counted.Fingerprint() != f.Fingerprint() {
		b.Fatalf("counting run diverged: %s vs %s", counted.Fingerprint(), f.Fingerprint())
	}
	var grants, wakes int64
	for _, g := range counted.ObsReport().Grants {
		grants += g.Grants
		wakes += g.Wakes
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(grants), "ns/grant")
	b.ReportMetric(float64(wakes)/float64(grants), "wakes/grant")
	b.ReportMetric(float64(grants)/float64(b.N), "grants/op")
}
