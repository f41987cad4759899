package main

import (
	"time"

	"pthreads"
)

const (
	churnClients  = 16
	churnParked   = 10000
	churnReq      = 128
	churnResp     = 512
	churnStartMax = 50 * pthreads.Microsecond // seeded client start stagger
	// A receive window smaller than the response makes the worker's
	// write block part-way while it holds the stats mutex, so the next
	// worker to reach the mutex contends for it.
	churnWindow = 256
)

// runChurn: one op is one connection. Each client thread dials, sends a
// request, reads the response and closes; the acceptor creates one
// worker thread per connection, which serves it under the shared stats
// mutex and exits; a reaper thread joins the workers in creation order.
// churnParked continuation readers stay parked throughout.
func runChurn(r *run) error {
	r.t0 = time.Now()
	sys := pthreads.New(pthreads.Config{})
	return sys.Run(func() {
		x := pthreads.NewIO(sys, pthreads.NetConfig{RecvBuf: churnWindow, SendBuf: churnWindow})
		n := r.addHost(sys, x)
		l, err := x.Listen("svc", 2*churnClients)
		if err != nil {
			panic(err)
		}
		stats := sys.MustMutex(pthreads.MutexAttr{Name: "stats"})
		reapSem, err := pthreads.NewSemaphore(sys, "reap", 0)
		if err != nil {
			panic(err)
		}
		var created, exited, joined, served int
		var reapQ []*pthreads.Thread

		worker := func(arg any) any {
			c := arg.(*pthreads.Conn)
			defer func() { exited++ }()
			if err := n.readFull(c, churnReq); err != nil {
				r.violate("churn: worker read: %v", err)
				return nil
			}
			if err := n.lock(stats); err != nil {
				r.violate("churn: lock: %v", err)
				return nil
			}
			served++
			err := n.write(c, churnResp)
			stats.Unlock()
			if err != nil {
				r.violate("churn: worker write: %v", err)
			}
			n.close(c)
			return nil
		}
		wattr := pthreads.DefaultAttr()
		wattr.Name = "worker"
		acceptor := func(any) any {
			for {
				c, err := n.accept(l)
				if err != nil {
					break // the listener closed: the run is over
				}
				t, err := n.create(wattr, worker, c)
				if err != nil {
					r.violate("churn: create: %v", err)
					c.Close()
					continue
				}
				created++
				reapQ = append(reapQ, t)
				reapSem.V()
			}
			reapQ = append(reapQ, nil)
			reapSem.V()
			return nil
		}
		reaper := func(any) any {
			for {
				reapSem.P()
				t := reapQ[0]
				reapQ = reapQ[1:]
				if t == nil {
					return nil
				}
				if err := n.join(t); err != nil {
					r.violate("churn: join: %v", err)
				}
				joined++
			}
		}
		stagger := newRNG(r.seed, 3)
		client := func(arg any) any {
			n.sleep(arg.(pthreads.Duration))
			for r.take() {
				v0 := sys.Now()
				c, err := n.dial("svc")
				if err == nil {
					err = n.write(c, churnReq)
					if err == nil {
						err = n.readFull(c, churnResp)
					}
					if cerr := n.close(c); err == nil {
						err = cerr
					}
				}
				r.complete(sys.Now(), sys.Now().Sub(v0), err == nil)
			}
			return nil
		}

		if err := parkReaders(r, n, churnParked); err != nil {
			panic(err)
		}
		attr := pthreads.DefaultAttr()
		attr.Name = "acceptor"
		acc := mustCreate(sys, attr, acceptor, nil)
		attr.Name = "reaper"
		rp := mustCreate(sys, attr, reaper, nil)
		attr.Name = "client"
		var clients []*pthreads.Thread
		for i := 0; i < churnClients; i++ {
			d := pthreads.Duration(stagger.intn(int(churnStartMax)))
			clients = append(clients, mustCreate(sys, attr, client, d))
		}
		join := func(t *pthreads.Thread) {
			if _, err := sys.Join(t); err != nil {
				r.violate("churn: join: %v", err)
			}
		}
		for _, t := range clients {
			join(t)
		}
		l.Close() // fails the acceptor's Accept; it then stops the reaper
		join(acc)
		join(rp)
		if created != r.issued || exited != created || joined != created || served != created {
			r.violate("churn: %d issued, %d created, %d served, %d exited, %d joined",
				r.issued, created, served, exited, joined)
		}
		sys.Shutdown(nil)
	})
}

func mustCreate(sys *pthreads.System, attr pthreads.Attr, fn func(any) any, arg any) *pthreads.Thread {
	t, err := sys.Create(attr, fn, arg)
	if err != nil {
		panic(err)
	}
	return t
}
