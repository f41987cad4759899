package unixkern

import (
	"fmt"

	"pthreads/internal/vtime"
)

// Device is a simulated I/O device behind the asynchronous I/O interface:
// a fixed per-request setup latency plus a per-byte transfer rate, with
// strict FIFO service — concurrent requests to one device queue behind
// each other, while different devices proceed in parallel (in virtual
// time). This gives the library's asynchronous I/O a realistic contention
// surface for tests and examples.
type Device struct {
	Name    string
	Setup   vtime.Duration // fixed cost per request
	PerByte vtime.Duration // transfer cost per byte

	k         *Kernel
	busyUntil vtime.Time

	// Requests counts issued requests (harness use).
	Requests int64
}

// NewDevice registers a device with the kernel.
func (k *Kernel) NewDevice(name string, setup, perByte vtime.Duration) (*Device, error) {
	if setup < 0 || perByte < 0 {
		return nil, fmt.Errorf("unixkern: negative device latency")
	}
	if name == "" {
		name = "dev"
	}
	return &Device{Name: name, Setup: setup, PerByte: perByte, k: k}, nil
}

// AioDevice issues an asynchronous transfer of the given size on the
// device for process p, completing — and posting SIGIO with datum — when
// the device has worked through its queue and this transfer. It returns
// the request id and the predicted completion time.
func (k *Kernel) AioDevice(d *Device, p *Process, bytes int, datum any) (AioID, vtime.Time) {
	k.CountSyscall(SysAioread)
	d.Requests++
	start := k.Clock.Now()
	if d.busyUntil > start {
		start = d.busyUntil
	}
	done := start.Add(d.Setup + vtime.Duration(bytes)*d.PerByte)
	d.busyUntil = done

	k.aioNext++
	req := &aioRequest{id: k.aioNext, p: p, datum: datum, bytes: bytes}
	k.Clock.ScheduleAt(done, req)
	k.aioInflight[AioID(req.id)] = req
	return AioID(req.id), done
}

// BusyUntil reports when the device's queue drains (diagnostics).
func (d *Device) BusyUntil() vtime.Time { return d.busyUntil }
