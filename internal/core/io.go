package core

import (
	"pthreads/internal/unixkern"
	"pthreads/internal/vtime"
)

// Sleep and asynchronous I/O: the blocking services whose completion
// reaches the library as signals (SIGALRM from the armed timer, SIGIO
// from the I/O completion), demultiplexed to the suspended thread by
// recipient rules 3 and 4.

// Sleep suspends the calling thread for d of virtual time. It returns the
// time remaining if the sleep was interrupted early by a signal handler
// (like sleep(3) returning nonzero after EINTR), or 0 after a full sleep.
// Sleep is an interruption point for cancellation.
func (s *System) Sleep(d vtime.Duration) vtime.Duration {
	var w waitOp
	w.d = d
	s.sleepOp(&w)
	return w.Rem
}

// sleepOp is Sleep over a frame (see waitOp).
func (s *System) sleepOp(w *waitOp) (parked bool) {
	t := s.current
	if w.phase == 0 {
		s.TestCancel()
		if w.d <= 0 {
			return false
		}
		w.deadline = s.clock.Now().Add(w.d)
		s.enterKernel()
		t.waitTimer = s.kern.SetTimer(s.proc, sigalrm, w.d, t, false)
		t.wake = wakeNone
		// A traced sleep's label carries its duration ("sleep 5ms"); an
		// untraced one is "sleep", so an untraced sleep storm never
		// touches the cold record. The tracer is fixed for the system's
		// life.
		if s.tracer != nil {
			t.coldState().sleepFor = w.d
		}
		w.phase = 1
		if s.block(w.declared, verbSleep) {
			return true
		}
	}
	switch t.wake {
	case wakeTimer:
	case wakeCancel:
		s.TestCancel() // exits
	case wakeInterrupt:
		if rem := w.deadline.Sub(s.clock.Now()); rem > 0 {
			w.Rem = rem
		}
	default:
		panic("core: sleep woke with unexpected cause")
	}
	return false
}

// AioRead issues an asynchronous read that completes after latency,
// suspending the calling thread until the SIGIO completion is
// demultiplexed back to it. It returns the transferred byte count.
// AioRead is an interruption point for cancellation. This is the
// library's substitute for the non-blocking I/O interfaces the paper's
// "Open Problems" section wishes UNIX had.
func (s *System) AioRead(latency vtime.Duration, bytes int) (int, error) {
	if latency < 0 || bytes < 0 {
		return 0, EINVAL.Or()
	}
	s.TestCancel()
	t := s.current

	s.enterKernel()
	c := t.coldState()
	c.aioID = s.kern.Aio(s.proc, latency, bytes, t)
	t.wake = wakeNone
	s.block(false, verbAio)

	switch t.wake {
	case wakeIO:
		n, ok := s.kern.AioResult(c.aioID)
		if !ok {
			return 0, EINVAL.Or()
		}
		return n, nil
	case wakeCancel:
		s.TestCancel() // exits
		return 0, EINTR.Or()
	default:
		return 0, EINTR.Or()
	}
}

// Device is a simulated I/O device the thread system can issue transfers
// on: fixed setup latency plus a per-byte rate, FIFO-serviced, so
// concurrent requests to the same device queue while different devices
// overlap.
type Device struct {
	s *System
	d *unixkern.Device
}

// OpenDevice registers a device with the simulated kernel.
func (s *System) OpenDevice(name string, setup, perByte vtime.Duration) (*Device, error) {
	d, err := s.kern.NewDevice(name, setup, perByte)
	if err != nil {
		return nil, EINVAL.Or()
	}
	return &Device{s: s, d: d}, nil
}

// Name returns the device name.
func (dv *Device) Name() string { return dv.d.Name }

// Requests reports how many transfers were issued on the device.
func (dv *Device) Requests() int64 { return dv.d.Requests }

// Transfer issues an asynchronous transfer of the given size and
// suspends the calling thread until the SIGIO completion is
// demultiplexed back to it (recipient rule 4). It returns the byte
// count. Transfer is an interruption point for cancellation.
func (dv *Device) Transfer(bytes int) (int, error) {
	s := dv.s
	if bytes < 0 {
		return 0, EINVAL.Or()
	}
	s.TestCancel()
	t := s.current

	s.enterKernel()
	c := t.coldState()
	c.aioID, _ = s.kern.AioDevice(dv.d, s.proc, bytes, t)
	c.device = dv.d
	t.wake = wakeNone
	s.block(false, verbDevice)

	switch t.wake {
	case wakeIO:
		n, ok := s.kern.AioResult(c.aioID)
		if !ok {
			return 0, EINVAL.Or()
		}
		return n, nil
	case wakeCancel:
		s.TestCancel() // exits
		return 0, EINTR.Or()
	default:
		return 0, EINTR.Or()
	}
}
