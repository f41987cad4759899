package io

import (
	"pthreads/internal/core"
	"pthreads/internal/unixkern"
	"pthreads/internal/vtime"
)

// File is a blocking jacket over a simulated device file: each Read
// issues one asynchronous device transfer and suspends the thread on the
// file's descriptor until the SIGIO completion arrives. Unlike
// core.Device.Transfer (which it supersedes for new code), File routes
// the wait through the per-fd queues, so Reads are interruptible with
// EINTR, timed, and visible to the wait-queue statistics.
//
// A File's descriptor is shared: several threads may Read concurrently,
// each with its own outstanding request. Completions on a shared device
// file therefore wake every waiter (IOReady.All) and each thread claims
// its own result, retrying the wait if the completion was a sibling's.
type File struct {
	x    *IO
	dev  *unixkern.Device
	fd   unixkern.FD
	name string
}

// OpenFile registers a device file: fixed per-request setup latency plus
// a per-byte rate, FIFO-serviced like all simulated devices.
func (x *IO) OpenFile(name string, setup, perByte vtime.Duration) (*File, error) {
	d, err := x.sys.Kernel().NewDevice(name, setup, perByte)
	if err != nil {
		return nil, core.EINVAL.Or()
	}
	f := &File{x: x, dev: d, name: d.Name}
	f.fd = x.sys.Process().AllocFD(f)
	return f, nil
}

// Name returns the device file's name.
func (f *File) Name() string { return f.name }

// FD returns the file's descriptor.
func (f *File) FD() unixkern.FD { return f.fd }

// Requests reports how many transfers were issued (harness use).
func (f *File) Requests() int64 { return f.dev.Requests }

// Read issues a transfer of the given size and blocks until it completes,
// returning the byte count. It is a cancellation point and interruptible
// with EINTR.
func (f *File) Read(bytes int) (int, error) { return f.read(bytes, 0) }

// ReadTimeout is Read bounded by d of virtual time (ETIMEDOUT). The
// abandoned transfer still completes in the background; its result is
// discarded.
func (f *File) ReadTimeout(bytes int, d vtime.Duration) (int, error) { return f.read(bytes, d) }

func (f *File) read(bytes int, d vtime.Duration) (int, error) {
	if bytes < 0 {
		return 0, core.EINVAL.Or()
	}
	var id unixkern.AioID
	issued := false
	var n int
	err := f.x.sys.FDBlockingCall(f.fd, core.VerbFileRead, d,
		func() (bool, bool) {
			if !issued {
				issued = true
				id, _ = f.x.sys.Kernel().AioDevice(f.dev, f.x.sys.Process(), bytes,
					&unixkern.IOCompletion{Ready: []unixkern.IOReady{{FD: f.fd, R: true, All: true}}})
				return false, false
			}
			k, ok := f.x.sys.Kernel().AioResult(id)
			if !ok {
				// A sibling's completion on the shared descriptor; ours is
				// still in flight.
				return false, false
			}
			n = k
			f.x.sys.CountFDBytes(k)
			return true, false
		})
	if err != nil {
		return 0, err
	}
	return n, nil
}
