package main

import (
	"errors"
	"fmt"
	"time"

	"pthreads"
)

const (
	echoParked = 100000
	echoMinMsg = 16
	echoMaxMsg = 1024
)

// runEcho: one client goroutine thread echoes seeded 16–1024 B messages
// off one server goroutine thread over a persistent connection, while
// echoParked continuation threads sit parked in ContRead on their own
// connections. An op is one write+read round trip.
func runEcho(r *run) error {
	r.t0 = time.Now()
	sys := pthreads.New(pthreads.Config{})
	return sys.Run(func() {
		x := pthreads.NewIO(sys, pthreads.NetConfig{RecvBuf: 2 * echoMaxMsg, SendBuf: 2 * echoMaxMsg})
		n := r.addHost(sys, x)
		l, err := x.Listen("echo", 1)
		if err != nil {
			panic(err)
		}
		attr := pthreads.DefaultAttr()
		attr.Name = "server"
		server, err := sys.Create(attr, func(any) any {
			c, err := n.accept(l)
			if err != nil {
				r.violate("echo: accept: %v", err)
				return nil
			}
			for {
				k, err := n.read(c, echoMaxMsg)
				if err != nil {
					if !errors.Is(err, pthreads.EOF) {
						r.violate("echo: server read: %v", err)
					}
					break
				}
				if err := n.write(c, k); err != nil {
					r.violate("echo: server write: %v", err)
					break
				}
			}
			c.Close()
			return nil
		}, nil)
		if err != nil {
			panic(err)
		}
		if err := parkReaders(r, n, echoParked); err != nil {
			panic(err)
		}
		c, err := x.Dial("echo")
		if err != nil {
			panic(err)
		}

		sizes := newRNG(r.seed, 1)
		var sent, echoed int64
		for r.take() {
			size := echoMinMsg + sizes.intn(echoMaxMsg-echoMinMsg+1)
			v0 := sys.Now()
			err := n.write(c, size)
			if err == nil {
				sent += int64(size)
				err = n.readFull(c, size)
			}
			if err == nil {
				echoed += int64(size)
			}
			r.complete(sys.Now(), sys.Now().Sub(v0), err == nil)
		}
		if sent != echoed {
			r.violate("echo: %d bytes sent, %d echoed", sent, echoed)
		}
		c.Close()
		if _, err := sys.Join(server); err != nil {
			r.violate("echo: join server: %v", err)
		}
		sys.Shutdown(nil)
	})
}

// parkReaders parks count continuation threads in ContRead, each on its
// own connection whose far end the calling thread accepts and holds
// without writing: a resident population that holds memory, fd-table
// and wait-queue slots, but no goroutine. A reader that ever wakes is a
// violation.
func parkReaders(r *run, n *node, count int) error {
	lp, err := n.x.Listen("park", 16)
	if err != nil {
		return err
	}
	woke := func(k *pthreads.Cont) { r.violate("parked reader woke: n=%d err=%v", k.N, k.Err) }
	step := func(k *pthreads.Cont) {
		c, err := n.x.Dial("park")
		if err != nil {
			r.violate("park: dial: %v", err)
			return
		}
		c.ContRead(k, 1, woke)
	}
	attr := pthreads.DefaultAttr()
	attr.Priority = n.sys.Self().Priority() + 1
	attr.Name = "parked"
	for i := 0; i < count; i++ {
		if _, err := n.sys.CreateCont(attr, step, nil); err != nil {
			return fmt.Errorf("park: create: %w", err)
		}
		if _, err := lp.Accept(); err != nil {
			return fmt.Errorf("park: accept: %w", err)
		}
	}
	return nil
}
