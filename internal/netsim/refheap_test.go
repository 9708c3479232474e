package netsim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEvent is one entry of the reference queue: a per-event (timestamp,
// schedule-seq) pair, the ordering contract the timer wheel must reproduce
// bit-for-bit.
type refEvent struct {
	at  Time
	seq int
	fn  func()
}

// refHeap is the reference per-event priority queue: a plain binary heap
// ordered by (timestamp, schedule-seq). It is deliberately the dumbest
// correct implementation — O(log n) per event, no batching, no wheel — so
// the equivalence tests compare the wheel against an independently obvious
// definition of the contract rather than against another clever queue.
type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// refSimulator drives refHeap with the Simulator's scheduling semantics
// (delay clamped to ≥ 0, overflow clamped to MaxTime, FIFO by schedule-seq).
// It keeps one queue for both event kinds and only counts the deliveries.
type refSimulator struct {
	now        Time
	h          refHeap
	seq        int
	nrun       int
	deliveries int
}

func (r *refSimulator) Schedule(delay Time, deliver bool, fn func()) {
	if deliver {
		r.deliveries++
	}
	if delay < 0 {
		delay = 0
	}
	at := r.now + delay
	if at < r.now {
		at = MaxTime
	}
	heap.Push(&r.h, refEvent{at: at, seq: r.seq, fn: fn})
	r.seq++
}

func (r *refSimulator) Step() bool {
	if r.h.Len() == 0 {
		return false
	}
	ev := heap.Pop(&r.h).(refEvent)
	r.now = ev.at
	r.nrun++
	ev.fn()
	return true
}

// runThrough is the reference's partial drain: every event with a timestamp
// ≤ deadline, the clock left at the last one run.
func (r *refSimulator) runThrough(deadline Time) {
	for r.h.Len() > 0 && r.h[0].at <= deadline {
		r.Step()
	}
}

func (r *refSimulator) Run() {
	for r.Step() {
	}
}

// scheduler abstracts the two queues for the shared workload driver: fn
// runs after delay, queued as a network delivery or as a timer.
type scheduler interface {
	Schedule(delay Time, deliver bool, fn func())
}

// mixedSim queues on a Simulator both ways: a timer, or a send on a
// lossless network whose latency is pinned to the requested delay (so the
// send draws nothing from its stream). Each message is its callback, which
// the handler runs.
type mixedSim struct {
	*Simulator
	net *Network
}

func newMixedSim() *mixedSim {
	s := funcSim()
	return &mixedSim{Simulator: s, net: NewNetwork(s, UniformLatency{})}
}

func (m *mixedSim) Schedule(delay Time, deliver bool, fn func()) {
	if !deliver {
		m.Timer(delay, fn)
		return
	}
	m.net.latency = UniformLatency{Min: delay, Max: delay}
	m.net.Send(fn, nil)
}

// checkKinds asserts that m ran what ref ran, and that only the
// deliveries among them count as delivered.
func checkKinds(t *testing.T, m *mixedSim, ref *refSimulator) {
	t.Helper()
	if m.executed != int64(ref.nrun) {
		t.Fatalf("wheel ran %d events, reference ran %d", m.executed, ref.nrun)
	}
	if st := m.net.Stats(); st.Sent != ref.deliveries || st.Delivered != ref.deliveries {
		t.Fatalf("network stats %+v, want all %d deliveries sent and delivered, timers in neither", st, ref.deliveries)
	}
}

// trace records (timestamp, label) execution pairs for comparison.
type trace struct {
	ats    []Time
	labels []int
}

func (tr *trace) record(at Time, label int) {
	tr.ats = append(tr.ats, at)
	tr.labels = append(tr.labels, label)
}

func (tr *trace) equal(other *trace) (int, bool) {
	if len(tr.ats) != len(other.ats) {
		return -1, false
	}
	for i := range tr.ats {
		if tr.ats[i] != other.ats[i] || tr.labels[i] != other.labels[i] {
			return i, false
		}
	}
	return 0, true
}

// workload drives a queue with a deterministic pseudo-random event pattern:
// an initial burst of events whose callbacks may reschedule follow-ups,
// alternating timers and deliveries, covering delay 0 (behind-the-cursor
// appends), duplicate timestamps shared by both kinds,
// cascade boundaries (delays near the 64/4096/2^18 level edges), and
// far-future delays beyond the wheel horizon. now() reads the driven
// queue's clock so follow-up delays are relative, exactly as real callers
// schedule.
func workload(seed int64, initial, follow int, s scheduler, now func() Time, tr *trace) {
	rng := rand.New(rand.NewSource(seed))
	delays := []Time{
		0, 1, 2, 3, 5, 17,
		63, 64, 65, // level 0/1 boundary
		4095, 4096, 4097, // level 1/2 boundary
		1<<18 - 1, 1 << 18, 1<<18 + 1, // level 2/3 boundary
		1<<24 - 1, 1 << 24, 1<<24 + 1, // wheel horizon / overflow
		1 << 30, // deep overflow
	}
	label := 0
	var schedule func(depth int)
	schedule = func(depth int) {
		l := label
		label++
		d := delays[rng.Intn(len(delays))]
		s.Schedule(d, l%2 == 1, func() {
			tr.record(now(), l)
			if depth > 0 && rng.Intn(3) > 0 {
				schedule(depth - 1)
			}
		})
	}
	for i := 0; i < initial; i++ {
		schedule(follow)
	}
}

// TestWheelMatchesReferenceHeap proves the wheel's ordering contract:
// across randomized workloads that mix timers and deliveries and exercise
// delay-0 appends, duplicate timestamps, every cascade boundary and the
// overflow list, the wheel executes the exact (timestamp, schedule-seq)
// sequence of the reference per-event heap, whatever each event's kind.
func TestWheelMatchesReferenceHeap(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		var trRef, trWheel trace

		ref := &refSimulator{}
		workload(seed, 40, 6, ref, func() Time { return ref.now }, &trRef)
		ref.Run()

		sim := newMixedSim()
		workload(seed, 40, 6, sim, func() Time { return sim.now }, &trWheel)
		sim.Run()

		checkKinds(t, sim, ref)
		if i, ok := trWheel.equal(&trRef); !ok {
			if i < 0 {
				t.Fatalf("seed %d: trace lengths differ: wheel %d, reference %d", seed, len(trWheel.ats), len(trRef.ats))
			}
			t.Fatalf("seed %d: divergence at event %d: wheel (t=%d, label=%d), reference (t=%d, label=%d)",
				seed, i, trWheel.ats[i], trWheel.labels[i], trRef.ats[i], trRef.labels[i])
		}
	}
}

// runThrough steps s through every event with a timestamp ≤ deadline: the
// partial drain the stepwise tests interleave with scheduling.
func runThrough(s *Simulator, deadline Time) {
	for {
		if s.cur == nil {
			if t, ok := s.peek(); !ok || t > deadline {
				return
			}
		} else if s.now > deadline {
			return
		}
		s.step()
	}
}

// TestWheelMatchesReferenceHeapStepwise interleaves scheduling with partial
// draining (runThrough at random deadlines), so cascades happen between
// schedule waves rather than only after all scheduling is done.
func TestWheelMatchesReferenceHeapStepwise(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var trRef, trWheel trace

		ref := &refSimulator{}
		sim := newMixedSim()

		deadline := Time(0)
		for wave := 0; wave < 8; wave++ {
			workload(seed*31+int64(wave), 10, 3, ref, func() Time { return ref.now }, &trRef)
			workload(seed*31+int64(wave), 10, 3, sim, func() Time { return sim.now }, &trWheel)
			deadline += Time(rng.Int63n(1 << 20))
			ref.runThrough(deadline)
			runThrough(sim.Simulator, deadline)
			if sim.now != ref.now {
				t.Fatalf("seed %d wave %d: clocks diverge: wheel %d, reference %d", seed, wave, sim.now, ref.now)
			}
		}
		ref.Run()
		sim.Run()
		checkKinds(t, sim, ref)

		if i, ok := trWheel.equal(&trRef); !ok {
			if i < 0 {
				t.Fatalf("seed %d: trace lengths differ: wheel %d, reference %d", seed, len(trWheel.ats), len(trRef.ats))
			}
			t.Fatalf("seed %d: divergence at event %d: wheel (t=%d, label=%d), reference (t=%d, label=%d)",
				seed, i, trWheel.ats[i], trWheel.labels[i], trRef.ats[i], trRef.labels[i])
		}
	}
}

// TestScheduleOverflowClamped is the regression test for the Time-overflow
// guard: a delay that would wrap s.now + delay past MaxTime parks the event
// at MaxTime instead of scheduling it into the past, and it still runs
// (last) with the clock at MaxTime.
func TestScheduleOverflowClamped(t *testing.T) {
	s := funcSim()
	var order []int
	s.Timer(10, func() { order = append(order, 1) })
	s.Timer(MaxTime, func() { // now+MaxTime wraps: clamp, not time travel
		if s.now != MaxTime {
			t.Errorf("overflow event ran at %d, want MaxTime", s.now)
		}
		order = append(order, 2)
	})
	s.Timer(20, func() { order = append(order, 3) })
	// Advance the clock first so now+delay overflows with a finite delay too.
	s.Timer(30, func() {
		s.Timer(MaxTime-5, func() {
			if s.now != MaxTime {
				t.Errorf("finite-delay overflow event ran at %d, want MaxTime", s.now)
			}
			order = append(order, 4)
		})
	})
	s.Run()
	if s.executed != 5 {
		t.Fatalf("ran %d events, want 5", s.executed)
	}
	want := []int{1, 3, 2, 4} // overflow events run last, in schedule order
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestFreelistCapped asserts the bounded-freelist satellite: retired slot
// arrays above maxRecycledCap events are dropped, not recycled, and the
// freelists themselves never exceed maxFreeLists and maxFreeLarge entries —
// so one large same-tick wave cannot pin its peak backing memory for the
// rest of a run.
func TestFreelistCapped(t *testing.T) {
	s := funcSim()
	// A wave well past maxRecycledCap on one tick: its slot array grows
	// beyond the recyclable cap and must be dropped on retire. Only the
	// smallSlotCap array it outgrew on the way is recycled.
	for i := 0; i < 4*maxRecycledCap; i++ {
		s.Timer(1, func() {})
	}
	s.Run()
	if len(s.large) != 0 || len(s.free) > 1 {
		t.Fatalf("freelists hold %d large and %d small arrays after an oversized wave, want 0 and ≤ 1 (cap %d dropped)",
			len(s.large), len(s.free), 4*maxRecycledCap)
	}
	// Many modest waves on distinct ticks: each retires a recyclable array,
	// but the freelist must stop growing at maxFreeLists.
	for tick := 1; tick <= 4*maxFreeLists; tick++ {
		for i := 0; i < maxRecycledCap; i++ {
			s.Timer(Time(tick), func() {})
		}
	}
	s.Run()
	if len(s.free) > maxFreeLists || len(s.large) > maxFreeLarge {
		t.Fatalf("freelists hold %d small and %d large arrays, want ≤ %d and ≤ %d",
			len(s.free), len(s.large), maxFreeLists, maxFreeLarge)
	}
	if len(s.large) == 0 {
		t.Fatal("no maxRecycledCap array was recycled; the waves no longer exercise the large freelist")
	}
	for _, arr := range s.free {
		if cap(arr) != smallSlotCap {
			t.Fatalf("small freelist holds an array of cap %d, want %d", cap(arr), smallSlotCap)
		}
	}
	for _, arr := range s.large {
		if cap(arr) != maxRecycledCap {
			t.Fatalf("large freelist holds an array of cap %d, want %d", cap(arr), maxRecycledCap)
		}
	}
}
