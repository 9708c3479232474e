package netsim

import (
	"testing"
)

// BenchmarkSimulatorSameTick drives the shape virtual-time batching targets:
// many deliveries landing on the same tick (a large-Concurrency engine where
// whole message waves share a timestamp). Each op schedules and drains 512
// events spread over 8 distinct timestamps — 64 events per tick.
func BenchmarkSimulatorSameTick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSimulator()
		for e := 0; e < 512; e++ {
			s.Schedule(Time(e%8), func() {})
		}
		if n := s.Run(0); n != 512 {
			b.Fatalf("ran %d", n)
		}
	}
}

// BenchmarkSimulatorSpreadTicks is the control: the same event count with
// every event on its own timestamp, where per-tick batching cannot help and
// must not hurt.
func BenchmarkSimulatorSpreadTicks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSimulator()
		for e := 0; e < 512; e++ {
			s.Schedule(Time(e), func() {})
		}
		if n := s.Run(0); n != 512 {
			b.Fatalf("ran %d", n)
		}
	}
}

// BenchmarkSimulatorCascade exercises nested scheduling: every executed event
// schedules its successor on the same tick until the wave is exhausted, the
// pattern of zero-latency message hand-offs.
func BenchmarkSimulatorCascade(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSimulator()
		var n int
		var tick func()
		tick = func() {
			n++
			if n%64 != 0 {
				s.Schedule(0, tick)
			} else if n < 512 {
				s.Schedule(1, tick)
			}
		}
		s.Schedule(0, tick)
		s.Run(0)
		if n != 512 {
			b.Fatalf("ran %d", n)
		}
	}
}
