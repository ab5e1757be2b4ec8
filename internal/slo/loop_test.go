package slo

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestEvery pins the shared tick loop's contract: it ticks, stop waits
// for a tick in progress, and nothing ticks once stop has returned.
func TestEvery(t *testing.T) {
	var ticks atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	stop := Every(time.Millisecond, func() {
		if ticks.Add(1) == 3 {
			close(entered)
			<-release
		}
	})
	<-entered // the loop ticked three times and is inside the third

	stopped := make(chan struct{})
	go func() {
		stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("stop returned while a tick was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-stopped

	n := ticks.Load()
	time.Sleep(10 * time.Millisecond)
	if got := ticks.Load(); got != n {
		t.Fatalf("loop ticked %d more time(s) after stop returned", got-n)
	}
}
