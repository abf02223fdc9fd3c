// Package sim provides the discrete-event kernel of the simulator: a
// deterministic time-ordered event queue. Ties at the same timestamp
// are broken by insertion order, so multi-core interleavings are fully
// reproducible for a given seed.
package sim

// Queue is a time-ordered priority queue of payloads of type T: a
// binary min-heap over its events, ordered by (time, seq). seq is
// unique, so the order is total and any correct heap pops the same
// sequence. Once the backing slice has grown to the peak depth, Push
// and Pop allocate nothing.
// The zero value is ready to use.
type Queue[T any] struct {
	h []event[T]
	n uint64 // insertion sequence for deterministic tie-breaks
}

type event[T any] struct {
	time    int64
	seq     uint64
	payload T
}

func (e *event[T]) before(o *event[T]) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}

// Push schedules payload at the given time.
func (q *Queue[T]) Push(time int64, payload T) {
	q.n++
	q.h = append(q.h, event[T]{time: time, seq: q.n, payload: payload})
	// Sift the new event up to its place.
	h := q.h
	i := len(h) - 1
	e := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// Pop removes and returns the earliest event. ok is false when empty.
func (q *Queue[T]) Pop() (time int64, payload T, ok bool) {
	if len(q.h) == 0 {
		var zero T
		return 0, zero, false
	}
	h := q.h
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event[T]{} // drop the payload so the slice holds no stale references
	h = h[:n]
	q.h = h
	if n > 0 {
		// Sift the former last event down from the root.
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(&h[c]) {
				c = r
			}
			if !h[c].before(&last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	return top.time, top.payload, true
}

// Peek returns the earliest event without removing it.
func (q *Queue[T]) Peek() (time int64, payload T, ok bool) {
	if len(q.h) == 0 {
		var zero T
		return 0, zero, false
	}
	return q.h[0].time, q.h[0].payload, true
}

// Len returns the number of pending events.
func (q *Queue[T]) Len() int { return len(q.h) }
