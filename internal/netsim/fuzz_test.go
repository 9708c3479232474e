package netsim

import (
	"testing"
)

// fuzzDelay maps one fuzz byte to a delay, weighting the wheel's interesting
// regions: small delays (including 0 and negatives, which clamp), the
// cascade boundaries between levels, the wheel horizon, and far-future
// overflow including Time-overflow clamping.
func fuzzDelay(b byte) Time {
	boundaries := []Time{
		-1, 0, 1, 2, 63, 64, 65, 127, 128,
		4095, 4096, 4097,
		1<<18 - 1, 1 << 18, 1<<18 + 1,
		1<<24 - 1, 1 << 24, 1<<24 + 1,
		1 << 30, 1 << 40, MaxTime - 1, MaxTime,
	}
	if b < 128 {
		return Time(b % 70) // dense small delays, duplicates guaranteed
	}
	return boundaries[int(b)%len(boundaries)]
}

// FuzzTimerWheel drives the timer wheel and the reference per-event heap
// with an input-derived schedule — delays drawn by fuzzDelay, timers and
// deliveries alternating, every third event rescheduling a follow-up,
// periodic partial drains — and asserts the executed (timestamp, label)
// traces are identical and only the deliveries count as delivered. This is
// the randomized half of the wheel's determinism contract: whatever shape
// the fuzzer finds, the wheel must execute the exact (timestamp,
// schedule-seq) FIFO order of the obvious heap.
func FuzzTimerWheel(f *testing.F) {
	f.Add([]byte{0, 0, 0})                          // delay-0 pileup
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 5})           // duplicate timestamps
	f.Add([]byte{128, 133, 134, 135, 140, 141, 66}) // cascade boundaries
	f.Add([]byte{146, 147, 148, 149, 1, 0})         // horizon and overflow
	f.Add([]byte{255, 254, 200, 100, 50, 25, 12, 6, 3, 1, 0})
	f.Add([]byte{63, 64, 65, 63, 64, 65, 191, 192, 193})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		var trRef, trWheel trace
		ref := &refSimulator{}
		sim := newMixedSim()

		drive := func(s scheduler, now func() Time, tr *trace, drain func(Time)) {
			label := 0
			var add func(d Time, depth int)
			add = func(d Time, depth int) {
				l := label
				label++
				s.Schedule(d, l%2 == 1, func() {
					tr.record(now(), l)
					if depth > 0 {
						// Follow-up delay derived from the label keeps both
						// runs in lockstep without sharing state.
						add(Time(l%97), depth-1)
					}
				})
			}
			for i, b := range data {
				add(fuzzDelay(b), i%3)
				if i%16 == 15 {
					// Partial drain so cascades interleave with schedules.
					drain(now() + Time(int(b)*997))
				}
			}
			drain(MaxTime)
		}

		drive(ref, func() Time { return ref.now }, &trRef, ref.runThrough)
		drive(sim, func() Time { return sim.now }, &trWheel, func(deadline Time) { runThrough(sim.Simulator, deadline) })

		if sim.now != ref.now {
			t.Fatalf("clocks diverge: wheel %d, reference %d", sim.now, ref.now)
		}
		if sim.pending != 0 {
			t.Fatalf("wheel left %d events pending after drain to MaxTime", sim.pending)
		}
		checkKinds(t, sim, ref)
		if i, ok := trWheel.equal(&trRef); !ok {
			if i < 0 {
				t.Fatalf("trace lengths differ: wheel %d, reference %d", len(trWheel.ats), len(trRef.ats))
			}
			t.Fatalf("divergence at event %d: wheel (t=%d, label=%d), reference (t=%d, label=%d)",
				i, trWheel.ats[i], trWheel.labels[i], trRef.ats[i], trRef.labels[i])
		}
	})
}
