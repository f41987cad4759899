package fabric

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestTeardownLeavesNoGoroutines covers every way a run ends — drain with
// a host still blocked in accept, a host body error, a fleet-wide
// deadlock — and checks that once Run returns, every goroutine the fleet
// started (host goroutines, their thread goroutines) is gone. The host
// that ends the run signals the teardown itself, so each path is its own
// handoff.
func TestTeardownLeavesNoGoroutines(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T) *Fabric
		check func(err error) bool
	}{
		{"drain", func(t *testing.T) *Fabric {
			f, _ := drainFleet(t)
			return f
		}, func(err error) bool { return err == nil }},
		{"body-error", func(t *testing.T) *Fabric {
			return mustNew(t, bodyErrorConfig())
		}, func(err error) bool { return errors.Is(err, errBoom) }},
		{"deadlock", func(t *testing.T) *Fabric {
			return mustNew(t, deadlockConfig())
		}, func(err error) bool { return err != nil && strings.Contains(err.Error(), "fleet deadlock") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			f := tc.build(t)
			if err := f.Run(); !tc.check(err) {
				t.Fatalf("Run: unexpected result %v", err)
			}
			// Exiting goroutines may still be unwinding when Run returns;
			// give the runtime a bounded time to settle.
			deadline := time.Now().Add(5 * time.Second)
			for {
				n := runtime.NumGoroutine()
				if n <= before {
					return
				}
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					buf = buf[:runtime.Stack(buf, true)]
					t.Fatalf("%d goroutines after Run, %d before New:\n%s", n, before, buf)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
