package netsim

import (
	"testing"
)

// BenchmarkSimulatorSameTick drives the shape virtual-time batching targets:
// many deliveries landing on the same tick (a large-Concurrency engine where
// whole message waves share a timestamp). Each op queues and drains 512
// timers spread over 8 distinct timestamps — 64 events per tick.
func BenchmarkSimulatorSameTick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSimulator()
		s.SetHandler(func(Message) {})
		for e := 0; e < 512; e++ {
			s.Timer(Time(e%8), nil)
		}
		if s.Run(); s.executed != 512 {
			b.Fatalf("ran %d", s.executed)
		}
	}
}

// BenchmarkSimulatorSpreadTicks is the control: the same event count with
// every event on its own timestamp, where per-tick batching cannot help and
// must not hurt.
func BenchmarkSimulatorSpreadTicks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSimulator()
		s.SetHandler(func(Message) {})
		for e := 0; e < 512; e++ {
			s.Timer(Time(e), nil)
		}
		if s.Run(); s.executed != 512 {
			b.Fatalf("ran %d", s.executed)
		}
	}
}

// BenchmarkSimulatorCascade exercises nested scheduling: every executed event
// queues its successor on the same tick until the wave is exhausted, the
// pattern of zero-latency message hand-offs.
func BenchmarkSimulatorCascade(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSimulator()
		var n int
		s.SetHandler(func(Message) {
			n++
			if n%64 != 0 {
				s.Timer(0, nil)
			} else if n < 512 {
				s.Timer(1, nil)
			}
		})
		s.Timer(0, nil)
		s.Run()
		if n != 512 {
			b.Fatalf("ran %d", n)
		}
	}
}
