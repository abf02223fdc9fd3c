package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestEmptyQueue(t *testing.T) {
	var q Queue[int]
	if _, _, ok := q.Pop(); ok {
		t.Error("Pop on empty queue returned ok")
	}
	if _, _, ok := q.Peek(); ok {
		t.Error("Peek on empty queue returned ok")
	}
	if q.Len() != 0 {
		t.Error("empty queue has nonzero length")
	}
}

func TestTimeOrdering(t *testing.T) {
	var q Queue[string]
	q.Push(30, "c")
	q.Push(10, "a")
	q.Push(20, "b")
	var got []string
	for {
		_, v, ok := q.Pop()
		if !ok {
			break
		}
		got = append(got, v)
	}
	if got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("order = %v", got)
	}
}

// Equal timestamps pop in insertion order (determinism).
func TestFIFOTieBreak(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 100; i++ {
		q.Push(42, i)
	}
	for i := 0; i < 100; i++ {
		_, v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d = %d (ok=%v)", i, v, ok)
		}
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	var q Queue[int]
	q.Push(5, 99)
	tm, v, ok := q.Peek()
	if !ok || tm != 5 || v != 99 {
		t.Fatalf("Peek = (%d,%d,%v)", tm, v, ok)
	}
	if q.Len() != 1 {
		t.Error("Peek removed the event")
	}
}

func TestRandomizedOrdering(t *testing.T) {
	var q Queue[int64]
	rng := rand.New(rand.NewSource(80))
	times := make([]int64, 1000)
	for i := range times {
		times[i] = int64(rng.Intn(10000))
		q.Push(times[i], times[i])
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	for i := range times {
		tm, v, ok := q.Pop()
		if !ok || tm != times[i] || v != times[i] {
			t.Fatalf("pop %d: got (%d,%d), want %d", i, tm, v, times[i])
		}
	}
}

// Interleaved push/pop keeps the heap invariant.
func TestInterleaved(t *testing.T) {
	var q Queue[int64]
	rng := rand.New(rand.NewSource(81))
	last := int64(-1)
	inFlight := 0
	for i := 0; i < 10000; i++ {
		if inFlight == 0 || rng.Intn(2) == 0 {
			// Push something at or after the last popped time to
			// mimic event-driven causality.
			q.Push(last+int64(rng.Intn(100))+1, 0)
			inFlight++
		} else {
			tm, _, ok := q.Pop()
			if !ok {
				t.Fatal("unexpected empty")
			}
			if tm < last {
				t.Fatalf("time went backwards: %d after %d", tm, last)
			}
			last = tm
			inFlight--
		}
	}
}

// TestQueueMatchesSortedReference interleaves Push, Pop and Peek with
// many equal timestamps and checks every popped and peeked event
// against a reference kept sorted by (time, seq).
func TestQueueMatchesSortedReference(t *testing.T) {
	type ref struct {
		time int64
		seq  int
	}
	var q Queue[int]
	var want []ref
	rng := rand.New(rand.NewSource(82))
	seq := 0
	for step := 0; step < 50000; step++ {
		// Alternate growing and draining phases so the queue runs both
		// deep and near empty.
		pushes := 2
		if step/5000%2 == 0 {
			pushes = 3
		}
		switch op := rng.Intn(5); {
		case op < pushes:
			// Eight distinct times: most pushes tie with queued events.
			tm := int64(rng.Intn(8)) * 10
			q.Push(tm, seq)
			// A later push sorts after every queued event of its time.
			i := sort.Search(len(want), func(i int) bool { return want[i].time > tm })
			want = slices.Insert(want, i, ref{tm, seq})
			seq++
		case op < 4:
			tm, v, ok := q.Pop()
			if ok != (len(want) > 0) {
				t.Fatalf("step %d: Pop ok = %v with %d queued", step, ok, len(want))
			}
			if ok {
				if tm != want[0].time || v != want[0].seq {
					t.Fatalf("step %d: Pop = (%d,%d), want (%d,%d)", step, tm, v, want[0].time, want[0].seq)
				}
				want = want[1:]
			}
		default:
			tm, v, ok := q.Peek()
			if ok != (len(want) > 0) || ok && (tm != want[0].time || v != want[0].seq) {
				t.Fatalf("step %d: Peek = (%d,%d,%v), want %v", step, tm, v, ok, want[:min(1, len(want))])
			}
		}
		if q.Len() != len(want) {
			t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(want))
		}
	}
}

// Once the heap has grown to its peak depth, Push and Pop reuse the
// backing array: the simulator's event loop allocates nothing per event.
func TestQueueNoAllocsAtCapacity(t *testing.T) {
	var q Queue[[4]uint64]
	for i := 0; i < 64; i++ {
		q.Push(int64(i%7), [4]uint64{uint64(i)})
	}
	tm := int64(64)
	allocs := testing.AllocsPerRun(1000, func() {
		tm++
		q.Push(tm%13, [4]uint64{uint64(tm)})
		q.Pop()
	})
	if allocs != 0 {
		t.Errorf("Push+Pop at capacity: %v allocs per run, want 0", allocs)
	}
}

// BenchmarkQueue holds the queue at a steady depth of 64 events, about
// what the simulator keeps pending, and times one Push plus one Pop.
func BenchmarkQueue(b *testing.B) {
	type payload struct {
		kind, core int
		addr       uint64
		level      int
		dirty      bool
	}
	var q Queue[payload]
	rng := rand.New(rand.NewSource(83))
	times := make([]int64, 1024)
	for i := range times {
		times[i] = int64(rng.Intn(1000))
	}
	now := int64(0)
	for i := 0; i < 64; i++ {
		q.Push(now+times[i], payload{core: i})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now, _, _ = q.Pop()
		q.Push(now+times[i%len(times)], payload{addr: uint64(i)})
	}
}
