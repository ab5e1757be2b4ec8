package slo

import "time"

// Every calls tick on its own goroutine once per interval (which must
// be positive) until the returned stop is called. stop returns once
// the goroutine has exited, so no tick runs after it. The SLO engine
// (Engine.Tick), the watchdog (watchdog.Watchdog.Tick) and the runtime
// sampler (runtimeobs.Sampler.Sample) all tick on it.
func Every(interval time.Duration, tick func()) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	t := time.NewTicker(interval)
	go func() {
		defer close(done)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				tick()
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}
