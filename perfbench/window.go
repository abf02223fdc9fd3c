package main

import (
	"fmt"
	"time"

	"counterlight/internal/mcpool"
)

// window is the number of requests the submitter keeps outstanding:
// the paper's Table I load shape, 4 cores × MLP 8 misses in flight at
// the controller. It equals mcpool's default BatchMax.
const window = 32

// waiter is a submitted request's pending response (*mcpool.Future).
type waiter interface{ Wait() mcpool.Response }

// submitFunc enqueues one request.
type submitFunc func(mcpool.Request) (waiter, error)

// poolSubmit adapts a pool to submitFunc.
func poolSubmit(p *mcpool.Pool) submitFunc {
	return func(r mcpool.Request) (waiter, error) { return p.Submit(r) }
}

// fence is an optional call the submitter makes after every `every`
// submitted requests (write_durable's FlushBarrier cadence).
type fence struct {
	every int
	call  func()
}

// runWindow drives ops through submit as a closed loop from one
// goroutine: it keeps exactly `window` requests outstanding (fewer
// only at the tail) and waits on them oldest-first, the way a core
// retires misses in order. Each request is timed from its Submit until
// its Wait returns into lat[i]; done(i, resp) then receives ops[i]'s
// response. A non-nil tr also records a span per request. It returns
// the wall time from the first Submit to the last Wait.
func runWindow(submit submitFunc, st *stream, ops []op, f fence, tr *spanLog, lat []int64, done func(int, mcpool.Response)) (time.Duration, error) {
	type slot struct {
		w    waiter
		t0   time.Time
		span int32
	}
	var ring [window]slot
	start := time.Now()
	next, waited := 0, 0
	for waited < len(ops) {
		for next < len(ops) && next-waited < window {
			req := st.request(ops[next])
			sp := tr.begin(requestSpan, tr.root())
			t0 := time.Now()
			w, err := submit(req)
			if err != nil {
				return 0, fmt.Errorf("submit op %d: %w", next, err)
			}
			ring[next%window] = slot{w, t0, sp}
			next++
			if f.every > 0 && next%f.every == 0 {
				f.call()
			}
		}
		s := &ring[waited%window]
		resp := s.w.Wait()
		lat[waited] = time.Since(s.t0).Nanoseconds()
		tr.end(s.span)
		*s = slot{}
		done(waited, resp)
		waited++
	}
	return time.Since(start), nil
}
