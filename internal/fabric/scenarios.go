package fabric

import (
	"errors"
	"fmt"
	"strings"

	"pthreads/internal/core"
	"pthreads/internal/vtime"
)

// Seeded fleet scenarios for the exploration engine and the CLI: a clean
// echo fleet (replay/determinism gates) and the classic lost-wakeup bug
// stretched across two hosts — the signal that goes missing is triggered
// by a message from another machine, so finding it requires exploring
// thread interleavings *inside* one host of a multi-host run, and the
// race it leaves behind spans the wire (a datum published on one host,
// read on another, with no ordering chain when the wakeup path is
// naked).

// FleetScenarios returns the built-in scenarios.
func FleetScenarios() []Scenario {
	return []Scenario{
		FleetEchoScenario(2, 256),
		FleetLostWakeupScenario(true),
		FleetLostWakeupScenario(false),
	}
}

// FleetScenarioByName resolves a scenario (nil if unknown).
func FleetScenarioByName(name string) *Scenario {
	for _, sc := range FleetScenarios() {
		if sc.Name == name {
			sc := sc
			return &sc
		}
	}
	return nil
}

// FleetEchoScenario is the clean fixture: one server host echoes one
// message to each of n client hosts, under mild link loss and a server
// pause window, so a replay exercises the whole fault machinery. There
// is no seeded bug; every schedule must complete every echo.
func FleetEchoScenario(clients, bytes int) Scenario {
	return Scenario{
		Name: "fleet-echo",
		Desc: fmt.Sprintf("%d client hosts echo %d bytes off one server host, with loss and a server pause", clients, bytes),
		Make: func() (Config, func(f *Fabric, runErr error) string) {
			got := make([]int, clients)
			cfg := Config{
				Seed: 7,
				Pauses: []HostPause{
					{Host: "srv", From: 120 * vtime.Time(vtime.Microsecond), To: 900 * vtime.Time(vtime.Microsecond)},
				},
			}
			cfg.Hosts = append(cfg.Hosts, HostSpec{
				Name: "srv",
				Body: func(h *Host) error {
					l, err := h.IO.Listen("echo", clients)
					if err != nil {
						return err
					}
					for i := 0; i < clients; i++ {
						c, err := l.Accept()
						if err != nil {
							return err
						}
						attr := core.DefaultAttr()
						attr.Name = fmt.Sprintf("echo%d", i)
						if _, err := h.Sys.Create(attr, func(any) any {
							for {
								n, err := c.Read(bytes)
								if err != nil {
									break // EOF or reset: client finished
								}
								if _, err := c.Write(n); err != nil {
									break
								}
							}
							c.Close()
							return nil
						}, nil); err != nil {
							return err
						}
					}
					// Workers are detached from the drain's point of view:
					// the fleet ends when the clients are done.
					l2, err := h.IO.Listen("hold", 1)
					if err != nil {
						return err
					}
					_, err = l2.Accept()
					return err
				},
			})
			drain := make([]string, 0, clients)
			for i := 0; i < clients; i++ {
				i := i
				name := fmt.Sprintf("c%d", i)
				drain = append(drain, name)
				cfg.Loss = append(cfg.Loss, LinkLoss{From: name, To: "srv", Rate: 0.05})
				cfg.Hosts = append(cfg.Hosts, HostSpec{
					Name: name,
					Body: func(h *Host) error {
						c, err := h.IO.Dial("srv:echo")
						if err != nil {
							return err
						}
						if _, err := c.Write(bytes); err != nil {
							return err
						}
						for got[i] < bytes {
							n, err := c.Read(bytes)
							if err != nil {
								return err
							}
							got[i] += n
						}
						return c.Close()
					},
				})
			}
			cfg.Drain = drain
			check := func(f *Fabric, runErr error) string {
				if runErr != nil {
					return firstLine(runErr.Error())
				}
				for i, g := range got {
					if g != bytes {
						return fmt.Sprintf("client %d echoed %d bytes, expected %d", i, g, bytes)
					}
				}
				return ""
			}
			return cfg, check
		},
	}
}

// FleetLostWakeupScenario seeds a lost wakeup whose producer is a
// network arrival from another host. Host src publishes a job record
// (an annotated write to the fleet-global location "job") and sends one
// message to host snk. On snk, the receiving thread sets a hand-rolled
// ready flag and signals a condition variable; a worker thread tests the
// flag and then waits. In the broken variant both halves skip the mutex
// (test before lock, naked signal): a preemption between the worker's
// flag test and its wait lets the arrival set the flag and signal into
// empty air — the worker sleeps forever and the whole fleet deadlocks.
// The fixed variant holds the mutex on both sides and re-tests in a
// loop, which no interleaving can break; it also closes the cross-host
// ordering chain, so the job record's write on src and read on snk stop
// racing.
func FleetLostWakeupScenario(broken bool) Scenario {
	name := "fleet-lost-wakeup-fixed"
	if broken {
		name = "fleet-lost-wakeup"
	}
	const bytes = 64
	return Scenario{
		Name: name,
		Desc: "cross-host message arrival signals a condition variable" +
			map[bool]string{true: " without the mutex (lost-wakeup seed)", false: " under the mutex"}[broken],
		Make: func() (Config, func(f *Fabric, runErr error) string) {
			consumed := false
			cfg := Config{
				Hosts: []HostSpec{
					{Name: "src", Body: func(h *Host) error {
						// Connect, publish the job record, then announce
						// it over the wire. The socket bytes carry the
						// happens-before edge; the record itself crosses
						// no channel, so only a correctly ordered wakeup
						// chain on snk keeps the remote read ordered.
						c, err := h.IO.Dial("snk:data")
						for errors.Is(err, core.ECONNREFUSED) {
							// snk listens only once its worker and pacer
							// exist, so a preemption there lets the dial
							// arrive first: back off and redial.
							h.Sys.Sleep(100 * vtime.Microsecond)
							c, err = h.IO.Dial("snk:data")
						}
						if err != nil {
							return err
						}
						h.Sys.NoteWrite("job")
						if _, err := c.Write(bytes); err != nil {
							return err
						}
						return c.Close()
					}},
					{Name: "snk", Body: func(h *Host) error {
						sys := h.Sys
						ready := false
						m := sys.MustMutex(core.MutexAttr{Name: "ready"})
						cond := sys.NewCond("ready")

						attr := core.DefaultAttr()
						attr.Name = "worker"
						worker, err := sys.Create(attr, func(any) any {
							if broken {
								// Reset the flag for this round — also
								// without the mutex.
								sys.NoteWrite("ready")
								ready = false
								// The bug: flag tested before the mutex. A
								// preemption at the Lock below opens the
								// window.
								sys.NoteRead("ready")
								if !ready {
									m.Lock()
									cond.Wait(m)
									m.Unlock()
								}
							} else {
								m.Lock()
								for !ready {
									sys.NoteRead("ready")
									cond.Wait(m)
								}
								sys.NoteRead("ready")
								m.Unlock()
							}
							sys.NoteRead("job")
							consumed = true
							return nil
						}, nil)
						if err != nil {
							return err
						}

						// A pacer gives a preemption somewhere to go while
						// the message is still on the wire: parking the
						// worker at its Lock must let virtual time reach
						// the arrival.
						attr.Name = "pacer"
						pacer, err := sys.Create(attr, func(any) any {
							sys.Compute(300 * vtime.Microsecond)
							return nil
						}, nil)
						if err != nil {
							return err
						}

						l, err := h.IO.Listen("data", 1)
						if err != nil {
							return err
						}
						c, err := l.Accept()
						if err != nil {
							return err
						}
						for n := 0; n < bytes; {
							r, err := c.Read(bytes)
							if err != nil {
								return err
							}
							n += r
						}
						c.Close()
						if broken {
							// Naked notify: set-and-signal with no mutex.
							sys.NoteWrite("ready")
							ready = true
							cond.Signal()
						} else {
							m.Lock()
							sys.NoteWrite("ready")
							ready = true
							cond.Signal()
							m.Unlock()
						}
						sys.Join(worker)
						sys.Join(pacer)
						return nil
					}},
				},
			}
			check := func(f *Fabric, runErr error) string {
				if runErr != nil {
					return firstLine(runErr.Error())
				}
				if !consumed {
					return "worker never consumed the job"
				}
				return ""
			}
			return cfg, check
		},
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
