package eval

import (
	"fmt"
	"strings"

	"pthreads/internal/core"
	"pthreads/internal/hw"
	ptio "pthreads/internal/io"
	"pthreads/internal/net"
	"pthreads/internal/vtime"
)

// Blocking-I/O jacket pressure: the webserver workload (N workers
// sharing one listening socket, M clients, bounded accept backlog,
// bounded per-connection buffers) run to completion, with the per-fd
// wait-queue and socket-stack counters reported afterwards. This is the
// evaluation surface of the jacket layer: how often threads suspended on
// descriptors, how deep the priority-ordered wait queues got, how much
// data moved, and how long threads spent blocked on I/O in virtual time.

const (
	netReqBytes = 256
	netRspBytes = 1024
	netBacklog  = 8
)

// NetScenarioResult is one run's I/O-pressure summary.
type NetScenarioResult struct {
	Workers  int
	Clients  int
	Stats    core.Stats
	NetStats net.Stats
	Retries  int
	End      vtime.Time
}

// RunNetScenario serves clients requests (256 B in, 1024 B out, with
// compute proportional to the request) through workers worker threads
// blocked in Accept on one shared listener. Clients refused by the
// bounded backlog back off and retry.
func RunNetScenario(workers, clients int) (*NetScenarioResult, error) {
	return runNetScenario(workers, clients, nil)
}

// runNetScenario is RunNetScenario with an optional config modifier, the
// seam the profiler uses to attach its recorder and collector (mod == nil
// is byte-identical to RunNetScenario).
func runNetScenario(workers, clients int, mod func(*core.Config)) (*NetScenarioResult, error) {
	cfg := core.Config{
		Machine:  hw.SPARCstationIPX(),
		PoolSize: workers + clients + 1,
	}
	if mod != nil {
		mod(&cfg)
	}
	s := core.New(cfg)
	res := &NetScenarioResult{Workers: workers, Clients: clients}
	err := s.Run(func() {
		x := ptio.New(s, net.Config{RecvBuf: 2048, SendBuf: 2048})
		l, err := x.Listen("web", netBacklog)
		if err != nil {
			panic(err)
		}
		var ws []*core.Thread
		for w := 0; w < workers; w++ {
			attr := core.DefaultAttr()
			attr.Name = fmt.Sprintf("worker%d", w)
			attr.Priority = s.Self().Priority() + 2 + w%8
			th, _ := s.Create(attr, func(any) any {
				for {
					c, err := l.Accept()
					if err != nil {
						return nil
					}
					got := 0
					for got < netReqBytes {
						n, err := c.Read(netReqBytes)
						if err != nil {
							break
						}
						got += n
					}
					s.Compute(vtime.Duration(got) * vtime.Microsecond / 2)
					c.Write(netRspBytes)
					c.Close()
				}
			}, nil)
			ws = append(ws, th)
		}
		var cs []*core.Thread
		for i := 0; i < clients; i++ {
			attr := core.DefaultAttr()
			attr.Name = fmt.Sprintf("client%d", i)
			th, _ := s.Create(attr, func(any) any {
				var c *ptio.Conn
				for {
					var err error
					c, err = x.Dial("web")
					if err == nil {
						break
					}
					if e, ok := core.AsErrno(err); !ok || e != core.ECONNREFUSED {
						panic(err)
					}
					res.Retries++
					s.Sleep(500 * vtime.Microsecond)
				}
				if _, err := c.Write(netReqBytes); err != nil {
					panic(err)
				}
				got := 0
				for got < netRspBytes {
					n, err := c.Read(netRspBytes)
					if err != nil {
						panic(err)
					}
					got += n
				}
				c.Close()
				return nil
			}, nil)
			cs = append(cs, th)
		}
		for _, th := range cs {
			s.Join(th)
		}
		l.Close()
		for _, th := range ws {
			s.Join(th)
		}
		res.NetStats = x.Stack().Stats()
	})
	if err != nil {
		return nil, err
	}
	res.Stats = s.Stats()
	res.End = s.Now()
	return res, nil
}

// FormatIOStats renders the blocking-I/O jacket section.
func FormatIOStats() (string, error) {
	var b strings.Builder
	b.WriteString("Blocking-I/O jacket pressure (per-fd wait queues over the socket stack)\n")
	b.WriteString("(webserver workload: N workers share one listener, M clients, backlog 8,\n")
	b.WriteString(" 256 B requests / 1024 B responses over a 10 MB/s wire, 2 KB buffers;\n")
	b.WriteString(" refused dials back off 500µs and retry)\n")
	b.WriteString("  workers clients   fd-waits  wakeups  max-depth  refused     bytes   io-blocked  virtual-end\n")
	for _, wc := range [][2]int{{2, 8}, {4, 16}, {8, 32}} {
		r, err := RunNetScenario(wc[0], wc[1])
		if err != nil {
			return "", err
		}
		st := r.Stats
		b.WriteString(fmt.Sprintf("  %7d %7d   %8d %8d  %9d  %7d  %8d  %11v  %11v\n",
			r.Workers, r.Clients,
			st.FDWaits, st.FDWakeups, st.FDMaxWaitDepth,
			r.NetStats.Refused, st.FDBytes,
			vtime.Duration(st.FDBlockedNS), r.End))
	}
	b.WriteString("\nEvery suspension is a thread parked on a descriptor's priority-ordered\n")
	b.WriteString("wait queue inside the library kernel; the SIGIO completion designates\n")
	b.WriteString("the top waiter (recipient rule 4 over descriptor sets). The io-blocked\n")
	b.WriteString("column sums virtual time spent suspended on descriptors — the time the\n")
	b.WriteString("library overlapped with other threads' compute, which a process-blocking\n")
	b.WriteString("read(2) would have wasted for the whole process.\n")
	return b.String(), nil
}
