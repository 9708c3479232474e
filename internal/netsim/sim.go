// Package netsim is a deterministic discrete-event network simulator: a
// virtual clock, an event queue, and a message-passing network with
// configurable latency and loss. Experiments run on it instead of real
// goroutines and sockets so that every run is exactly reproducible from a
// seed. The simulator itself draws no randomness: every flow passes its own
// stream to Network.Send, so a flow's fate does not depend on how the flows
// happen to interleave on the virtual clock.
//
// Every queued event is a message bound for the simulator's one handler:
// either a timer (Simulator.Timer) or a network delivery (Network.Send).
//
// A Simulator (and the Network on top of it) is single-threaded by design:
// events run one at a time in timestamp order. None of the types in this
// package are safe for concurrent use.
package netsim

import (
	"math"
	"math/bits"
)

// Time is virtual time in abstract ticks (the experiments interpret a tick
// as a millisecond).
type Time int64

// Millisecond is the canonical tick interpretation used by the experiments.
const Millisecond Time = 1

// MaxTime is the far end of virtual time. Timers and sends clamp timestamps
// that would overflow int64 tick arithmetic to it, so a pathological delay
// parks the event at the end of time instead of wrapping it into the past.
const MaxTime = Time(math.MaxInt64)

// The event queue is a hierarchical timing wheel (Varghese & Lauck): four
// levels of 64-slot arrays indexed by the virtual timestamp's bit groups.
// Level L buckets time at a granularity of 2^(6L) ticks, so the wheels
// cover a horizon of 2^24 ticks ahead of the clock; events beyond that wait
// in a plain overflow list. Scheduling and expiring are O(1) — no
// per-timestamp map, no heap sift — and an event cascades down at most
// wheelLevels-1 times before it fires.
const (
	wheelSlotBits = 6
	wheelSlots    = 1 << wheelSlotBits // 64: one occupancy word per level
	wheelSlotMask = wheelSlots - 1
	wheelLevels   = 4
	wheelBits     = wheelSlotBits * wheelLevels // horizon = 2^wheelBits ticks
)

// Slot array sizes and freelist bounds (see recycle). A slot that outgrows
// its inline array takes a smallSlotCap array, and one that outgrows that a
// maxRecycledCap array, each from its own freelist; arrays above
// maxRecycledCap events are dropped rather than recycled. maxRecycledCap
// holds the waves a marketplace with 256 sessions in flight puts on one
// slot — a level-1 slot gathers 64 ticks of session timeouts — so those
// recycle instead of regrowing on every pass. At most maxFreeLists small and
// maxFreeLarge large arrays are kept, so one large same-tick wave cannot pin
// its peak backing memory for the rest of a long run. maxFreeLists matches
// the wheel's slots-per-level so a steady wave that fills one level-0 page
// recycles every slot array instead of re-allocating half of them each pass;
// the pinned ceiling is maxFreeLists×smallSlotCap + maxFreeLarge×maxRecycledCap
// entries (256 KiB).
const (
	smallSlotCap   = 64
	maxRecycledCap = 256
	maxFreeLists   = wheelSlots
	maxFreeLarge   = 16
	slotInline     = 2
)

// event is one queued message: 32 bytes, held inline in the slot arrays,
// so queueing a timer or a send allocates nothing.
type event struct {
	at  Time
	msg Message
	net *Network // the delivering network; nil marks a timer
}

// slot is one wheel bucket: a FIFO list of events, backed by a small inline
// array so the common near-empty slot never allocates. next is the cursor of
// the next event to run while the slot is executing, so events the handler
// schedules for the same tick append behind the cursor and still run this
// tick, in schedule order.
type slot struct {
	events []event
	next   int
	inline [slotInline]event
}

// Simulator owns the virtual clock and the timer-wheel event queue.
//
// Invariants: base ≤ now is never violated in the other direction — every
// pending event has at ≥ base; an event sits at the lowest level whose
// current page (the 2^(6(L+1))-tick aligned block containing base) covers
// its timestamp; occupancy bit (L, i) is set exactly when wheels[L][i]
// holds events. Together these make execution order bit-for-bit the
// (timestamp, schedule-seq) FIFO order of a per-event priority queue: a
// level-0 slot only ever holds events of one timestamp, and cascades
// preserve list order.
type Simulator struct {
	now      Time
	base     Time  // wheel reference: no pending event is earlier
	cur      *slot // level-0 slot currently draining at now, if any
	wheels   [wheelLevels][wheelSlots]slot
	occ      [wheelLevels]uint64 // per-level slot occupancy bitmaps
	overflow []event             // events beyond the top wheel's horizon
	free     [][]event           // bounded freelist of retired smallSlotCap arrays
	large    [][]event           // bounded freelist of retired maxRecycledCap arrays
	pending  int
	executed int64
	handler  Handler
}

// Message is an opaque payload; the handler tells the kinds apart by type.
type Message any

// Handler consumes every fired timer and delivered message.
type Handler func(msg Message)

// NewSimulator returns an empty simulator at time 0.
func NewSimulator() *Simulator { return &Simulator{} }

// SetHandler installs the one handler that receives every timer and every
// delivered message. Until one is set, sends count as NoRoute; a timer must
// not fire before it is set.
func (s *Simulator) SetHandler(h Handler) { s.handler = h }

// Executed reports the total number of events run so far, timers and
// deliveries alike — the event-load number the scale benchmarks normalise by.
func (s *Simulator) Executed() int64 { return s.executed }

// Timer queues msg to reach the handler after delay (clamped to ≥ 0) of
// virtual time.
func (s *Simulator) Timer(delay Time, msg Message) {
	s.schedule(delay, event{msg: msg})
}

// schedule queues ev after delay, clamped to ≥ 0; a timestamp that would
// overflow Time is clamped to MaxTime. Scheduling is O(1): the timestamp's
// bits select a wheel slot directly.
func (s *Simulator) schedule(delay Time, ev event) {
	if delay < 0 {
		delay = 0
	}
	at := s.now + delay
	if at < s.now { // int64 overflow: clamp to the far end of time
		at = MaxTime
	}
	ev.at = at
	s.pending++
	s.enqueue(ev)
}

// enqueue places ev at the lowest wheel level whose current page contains
// its timestamp, or in the overflow list beyond the horizon.
func (s *Simulator) enqueue(ev event) {
	at := ev.at
	for l := 0; l < wheelLevels; l++ {
		shift := uint((l + 1) * wheelSlotBits)
		if at>>shift == s.base>>shift {
			s.push(l, int(at>>uint(l*wheelSlotBits))&wheelSlotMask, ev)
			return
		}
	}
	s.overflow = append(s.overflow, ev)
}

// push appends ev to a wheel slot, growing through the freelist when the
// slot outgrows its inline array.
func (s *Simulator) push(l, idx int, ev event) {
	sl := &s.wheels[l][idx]
	if sl.events == nil {
		sl.events = sl.inline[:0]
		s.occ[l] |= 1 << uint(idx)
	}
	if n := len(sl.events); n == cap(sl.events) && n < maxRecycledCap {
		// Outgrowing the inline array jumps straight to a recyclable
		// smallSlotCap array, and outgrowing that to a maxRecycledCap one
		// (freelist first), instead of doubling through intermediate
		// sizes — same-tick waves are the hot shape and the repeated growth
		// copies are what they'd pay for.
		var arr []event
		if n < smallSlotCap {
			arr = takeFree(&s.free, n, smallSlotCap)
		} else {
			arr = takeFree(&s.large, n, maxRecycledCap)
		}
		copy(arr, sl.events)
		s.recycle(sl.events) // its events live on in arr
		sl.events = arr
	}
	sl.events = append(sl.events, ev)
}

// takeFree returns an array of length n and capacity size, popped from
// the freelist when it holds one.
func takeFree(free *[][]event, n, size int) []event {
	if k := len(*free); k > 0 {
		arr := (*free)[k-1][:n]
		*free = (*free)[:k-1]
		return arr
	}
	return make([]event, n, size)
}

// peek returns the earliest pending timestamp without touching the wheel
// structure. Levels nest — every level-L event fires before any level-L+1
// event — so the first occupied level's lowest occupied slot holds the
// minimum; above level 0 the slot spans several ticks and is scanned.
func (s *Simulator) peek() (Time, bool) {
	if s.pending == 0 {
		return 0, false
	}
	if occ := s.occ[0]; occ != 0 {
		idx := bits.TrailingZeros64(occ)
		return s.base&^Time(wheelSlotMask) | Time(idx), true
	}
	for l := 1; l < wheelLevels; l++ {
		occ := s.occ[l]
		if occ == 0 {
			continue
		}
		sl := &s.wheels[l][bits.TrailingZeros64(occ)]
		min := MaxTime
		for i := range sl.events {
			if sl.events[i].at < min {
				min = sl.events[i].at
			}
		}
		return min, true
	}
	min := MaxTime
	for i := range s.overflow {
		if s.overflow[i].at < min {
			min = s.overflow[i].at
		}
	}
	return min, true
}

// advanceTo moves the wheel reference to t (the timestamp about to
// execute; nothing pending is earlier) and cascades: at each level, only
// the slot indexed by t's bits can hold events whose level drops under the
// new base, so those slots are detached top-down and their events
// re-placed. Detaching preserves list order and same-timestamp events share
// every slot index, so FIFO order within a timestamp survives every
// cascade. Crossing the top-level page re-files overflow events that came
// within the horizon.
func (s *Simulator) advanceTo(t Time) {
	if t>>wheelSlotBits == s.base>>wheelSlotBits {
		s.base = t
		return
	}
	crossedTop := t>>wheelBits != s.base>>wheelBits
	s.base = t
	if crossedTop && len(s.overflow) > 0 {
		evs := s.overflow
		s.overflow = nil // old array is dropped, so no need to zero it
		for i := range evs {
			s.enqueue(evs[i]) // re-appends to overflow when still beyond
		}
	}
	for l := wheelLevels - 1; l >= 1; l-- {
		idx := int(t>>uint(l*wheelSlotBits)) & wheelSlotMask
		if s.occ[l]&(1<<uint(idx)) == 0 {
			continue
		}
		sl := &s.wheels[l][idx]
		evs := sl.events
		sl.events = nil
		sl.next = 0
		s.occ[l] &^= 1 << uint(idx)
		for i := range evs {
			s.enqueue(evs[i])
		}
		s.recycle(evs)
	}
}

// recycle takes a detached slot array whose events have all been executed or
// re-placed and either clears it (releasing the refs its dead entries pin)
// or drops it wholesale. Clearing happens here, in one bulk pass, rather
// than entry-by-entry on the execute path — scattered pointer zeroing is
// write-barrier traffic the hot loop can skip, and an array headed for the
// garbage collector needs no zeroing at all. Freelist bounds: arrays of
// other sizes than smallSlotCap and maxRecycledCap (the ones append grew
// past maxRecycledCap) are dropped so a single large wave cannot pin its
// peak memory, and each freelist keeps a bounded number of arrays.
// Inline-backed arrays persist inside their slot struct, so they are always
// cleared.
func (s *Simulator) recycle(arr []event) {
	switch c := cap(arr); {
	case c <= slotInline:
		clear(arr[:c])
	case c == smallSlotCap && len(s.free) < maxFreeLists:
		clear(arr)
		s.free = append(s.free, arr[:0])
	case c == maxRecycledCap && len(s.large) < maxFreeLarge:
		clear(arr)
		s.large = append(s.large, arr[:0])
	}
	// Anything else is dropped: the collector releases the refs with it.
}

// retireSlot empties an exhausted level-0 slot after its last event ran.
func (s *Simulator) retireSlot(idx int) {
	sl := &s.wheels[0][idx]
	s.occ[0] &^= 1 << uint(idx)
	s.recycle(sl.events)
	sl.events = nil
	sl.next = 0
}

// exec runs the cursor event of the level-0 slot draining at s.now. While a
// slot is draining every next event is its cursor entry — a handler cannot
// schedule anything earlier than now, and a delay-0 event appends behind the
// cursor of this same slot — so the drain loop skips peek and advanceTo
// entirely; that is the fast path that keeps same-tick waves at the bucketed
// queue's cost. Fired entries are not zeroed here: the slot clears in bulk
// when it retires (recycle), so their refs stay pinned only until the slot
// exhausts — at most one tick.
func (s *Simulator) exec(sl *slot) {
	ev := sl.events[sl.next]
	sl.next++
	s.pending--
	s.executed++
	if ev.net != nil {
		ev.net.stats.Delivered++
	}
	s.handler(ev.msg)
	// The handler may have appended same-tick events behind the cursor;
	// only an exhausted slot retires.
	if sl.next == len(sl.events) {
		s.retireSlot(int(s.now) & wheelSlotMask)
		s.cur = nil
	}
}

// runAt executes the next event, which has timestamp t.
func (s *Simulator) runAt(t Time) {
	s.advanceTo(t)
	sl := &s.wheels[0][int(t)&wheelSlotMask]
	s.now = t
	s.cur = sl
	s.exec(sl)
}

// step runs the next event, advancing the clock to its timestamp, and
// reports whether there was one. Execution order is that of a per-event
// queue: timestamp order, FIFO within a timestamp.
func (s *Simulator) step() bool {
	if sl := s.cur; sl != nil {
		s.exec(sl)
		return true
	}
	t, ok := s.peek()
	if !ok {
		return false
	}
	s.runAt(t)
	return true
}

// Run executes events until the queue drains.
func (s *Simulator) Run() {
	for s.step() {
	}
}
