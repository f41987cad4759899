package main

import (
	"fmt"
	"time"

	"pthreads"
	"pthreads/internal/fabric"
)

const (
	fleetReplicas    = 4
	fleetClientHosts = 4
	fleetUsers       = 256
	fleetLoss        = 0.01
	fleetReq         = 128
	fleetResp        = 512
	fleetService     = 2 * pthreads.Millisecond
	fleetStaggerMax  = fleetUsers * 20 * pthreads.Microsecond
)

// runFleet: one op is one user request through a load balancer to one of
// fleetReplicas replicas and back, on a fabric of 1 + fleetReplicas +
// fleetClientHosts hosts with seeded loss on the lb→replica links. Each
// of fleetUsers users makes sequential connection-per-request calls. The
// traced run turns on the fabric's rollups for its grant counts.
func runFleet(r *run) error {
	r.t0 = time.Now()
	cfg := fabric.Config{Seed: r.seed, Drain: make([]string, 0, fleetClientHosts)}
	cfg.Obs.Rollup = r.tr != nil
	cfg.Hosts = append(cfg.Hosts, fabric.HostSpec{Name: "lb", Body: fleetLB(r)})
	for i := 0; i < fleetReplicas; i++ {
		name := fmt.Sprintf("r%d", i)
		cfg.Hosts = append(cfg.Hosts, fabric.HostSpec{Name: name, Body: fleetReplica(r)})
		cfg.Loss = append(cfg.Loss, fabric.LinkLoss{From: "lb", To: name, Rate: fleetLoss})
	}
	stagger := newRNG(r.seed, 4)
	for i := 0; i < fleetClientHosts; i++ {
		name := fmt.Sprintf("c%d", i)
		delays := make([]pthreads.Duration, fleetUsers/fleetClientHosts)
		for j := range delays {
			delays[j] = pthreads.Duration(stagger.intn(int(fleetStaggerMax)))
		}
		cfg.Drain = append(cfg.Drain, name)
		cfg.Hosts = append(cfg.Hosts, fabric.HostSpec{Name: name, Body: fleetClient(r, delays)})
	}
	f, err := fabric.New(cfg)
	if err != nil {
		return err
	}
	r.fab = f
	for _, h := range f.Hosts() {
		r.addHost(h.Sys, h.IO)
	}
	if r.tr != nil {
		r.tr.fabricRun = span{kind: spFabricRun, host: uint8(len(cfg.Hosts)), start: r.tr.now()}
	}
	err = f.Run()
	if r.tr != nil {
		r.tr.fabricRun.end = r.tr.now()
	}
	r.fingerprint = f.Fingerprint()
	return err
}

// hostNode returns the run's node for a fleet host.
func hostNode(r *run, h *fabric.Host) *node { return r.hosts[h.ID] }

// fleetLB accepts forever and forwards each connection to the next
// replica in round-robin order on its own detached thread.
func fleetLB(r *run) func(h *fabric.Host) error {
	return func(h *fabric.Host) error {
		n := hostNode(r, h)
		l, err := h.IO.Listen("http", 256)
		if err != nil {
			return err
		}
		targets := make([]string, fleetReplicas)
		for i := range targets {
			targets[i] = fmt.Sprintf("r%d:serve", i)
		}
		forward := func(arg any) any {
			fw := arg.(*forwardReq)
			c := fw.c
			defer n.close(c)
			if err := n.readFull(c, fleetReq); err != nil {
				return nil
			}
			b, err := n.dial(fw.target)
			if err != nil {
				return nil
			}
			defer n.close(b)
			if err := n.write(b, fleetReq); err != nil {
				return nil
			}
			for got := 0; got < fleetResp; {
				k, err := n.read(b, fleetResp-got)
				if err != nil {
					return nil
				}
				got += k
				if err := n.write(c, k); err != nil {
					return nil
				}
			}
			return nil
		}
		attr := pthreads.DefaultAttr()
		attr.Name = "forward"
		attr.Detached = true
		for i := 0; ; i++ {
			c, err := n.accept(l)
			if err != nil {
				return err
			}
			if _, err := n.create(attr, forward, &forwardReq{c: c, target: targets[i%fleetReplicas]}); err != nil {
				return err
			}
		}
	}
}

type forwardReq struct {
	c      *pthreads.Conn
	target string
}

// fleetReplica serves each request on its own detached thread: read,
// compute for the service time, respond.
func fleetReplica(r *run) func(h *fabric.Host) error {
	return func(h *fabric.Host) error {
		n := hostNode(r, h)
		l, err := h.IO.Listen("serve", 256)
		if err != nil {
			return err
		}
		serve := func(arg any) any {
			c := arg.(*pthreads.Conn)
			defer n.close(c)
			if err := n.readFull(c, fleetReq); err != nil {
				return nil
			}
			h.Sys.Compute(fleetService)
			n.write(c, fleetResp)
			return nil
		}
		attr := pthreads.DefaultAttr()
		attr.Name = "serve"
		attr.Detached = true
		for {
			c, err := n.accept(l)
			if err != nil {
				return err
			}
			if _, err := n.create(attr, serve, c); err != nil {
				return err
			}
		}
	}
}

// fleetClient runs one client host's users: each sleeps its seeded
// stagger, then takes tickets until none are left, one request each.
func fleetClient(r *run, delays []pthreads.Duration) func(h *fabric.Host) error {
	return func(h *fabric.Host) error {
		n := hostNode(r, h)
		sys := h.Sys
		user := func(arg any) any {
			n.sleep(arg.(pthreads.Duration))
			for r.take() {
				v0 := sys.Now()
				c, err := n.dial("lb:http")
				if err == nil {
					err = n.write(c, fleetReq)
					if err == nil {
						err = n.readFull(c, fleetResp)
					}
					if cerr := n.close(c); err == nil {
						err = cerr
					}
				}
				r.complete(sys.Now(), sys.Now().Sub(v0), err == nil)
			}
			return nil
		}
		attr := pthreads.DefaultAttr()
		attr.Name = "user"
		users := make([]*pthreads.Thread, len(delays))
		for i, d := range delays {
			t, err := sys.Create(attr, user, d)
			if err != nil {
				return err
			}
			users[i] = t
		}
		for _, t := range users {
			if _, err := sys.Join(t); err != nil {
				return err
			}
		}
		return nil
	}
}
