package flight

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestRingBasics records under capacity and checks retention, order,
// and counters.
func TestRingBasics(t *testing.T) {
	r := NewRing(16)
	if r.Size() != 16 {
		t.Fatalf("Size = %d, want 16", r.Size())
	}
	for i := 0; i < 10; i++ {
		r.Record(KindSubmit, int32(i%4), uint64(i)*64, int64(i), 0)
	}
	if r.Recorded() != 10 || r.Evicted() != 0 {
		t.Fatalf("recorded %d evicted %d, want 10, 0", r.Recorded(), r.Evicted())
	}
	evs := r.Snapshot()
	if len(evs) != 10 {
		t.Fatalf("snapshot holds %d events, want 10", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d seq %d, want %d (sequence order)", i, ev.Seq, i+1)
		}
		if ev.Addr != uint64(i)*64 || ev.A != int64(i) {
			t.Fatalf("event %d payload %+v corrupted", i, ev)
		}
	}
}

// TestRingOverflow wraps the ring several times over: only the newest
// size events survive and the eviction counter accounts for the rest.
func TestRingOverflow(t *testing.T) {
	r := NewRing(16)
	const total = 100
	for i := 1; i <= total; i++ {
		r.Record(KindNote, 0, 0, int64(i), 0)
	}
	if r.Recorded() != total {
		t.Fatalf("recorded %d, want %d", r.Recorded(), total)
	}
	if want := uint64(total - 16); r.Evicted() != want {
		t.Fatalf("evicted %d, want %d", r.Evicted(), want)
	}
	evs := r.Snapshot()
	if len(evs) != 16 {
		t.Fatalf("snapshot holds %d, want 16", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(total - 16 + i + 1); ev.Seq != want {
			t.Fatalf("slot %d seq %d, want %d (only newest retained)", i, ev.Seq, want)
		}
	}
}

// TestRingSizeRounding pins rounding: below the 16 minimum and
// non-powers of two round up.
func TestRingSizeRounding(t *testing.T) {
	for in, want := range map[int]int{0: 16, 1: 16, 16: 16, 17: 32, 100: 128} {
		if got := NewRing(in).Size(); got != want {
			t.Fatalf("NewRing(%d).Size = %d, want %d", in, got, want)
		}
	}
}

// TestRingNilSafe: a nil ring is a disabled recorder everywhere.
func TestRingNilSafe(t *testing.T) {
	var r *Ring
	r.Record(KindFault, 1, 2, 3, 4)
	r.Note(0, 0, 0)
	if r.Size() != 0 || r.Recorded() != 0 || r.Evicted() != 0 || r.Snapshot() != nil {
		t.Fatal("nil ring accessors must read zero")
	}
	if err := r.WriteJSON(nil); err != nil {
		t.Fatalf("nil ring WriteJSON = %v", err)
	}
	if err := r.DumpFile(""); err != nil {
		t.Fatalf("nil ring DumpFile = %v", err)
	}
	r.RegisterMetrics(nil)
	r.RefreshMetrics(nil)
}

// TestRingConcurrent hammers the ring from many writers while a
// reader snapshots continuously: no panics, snapshots contain only
// committed events with intact payloads (Seq consistent with A).
func TestRingConcurrent(t *testing.T) {
	r := NewRing(64)
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, ev := range r.Snapshot() {
				// Writers store A = int64(their seq); a torn slot
				// would break this invariant.
				if ev.A != int64(ev.Seq) {
					t.Errorf("torn event: seq %d carries payload %d", ev.Seq, ev.A)
					return
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				// A carries the claimed sequence so the reader can
				// detect torn slots; replicate Record's protocol with
				// that payload.
				s := r.seq.Add(1)
				sl := &r.slots[s&r.mask]
				sl.seq.Store(0)
				sl.store(Event{TimeNs: nanotime(), Kind: KindNote, A: int64(s)})
				sl.seq.Store(s)
			}
		}()
	}
	wg.Wait()
	close(stop)
	if r.Recorded() != workers*per {
		t.Fatalf("recorded %d, want %d", r.Recorded(), workers*per)
	}
}

// TestRingJSON checks the dump shape: counters, kind names as
// strings, and decodability.
func TestRingJSON(t *testing.T) {
	r := NewRing(16)
	r.Record(KindDegrade, 2, 128, 7, 3)
	r.Record(KindEpochSwitch, -1, 0, 1, 4)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"degrade"`, `"epoch_switch"`, `"recorded": 2`, `"evicted": 0`} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %s:\n%s", want, out)
		}
	}
	var d struct {
		Recorded uint64 `json:"recorded"`
		Events   []struct {
			Seq  uint64 `json:"seq"`
			Kind string `json:"kind"`
			Addr uint64 `json:"addr"`
		} `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Recorded != 2 || len(d.Events) != 2 || d.Events[0].Kind != "degrade" || d.Events[0].Addr != 128 {
		t.Fatalf("decoded dump %+v malformed", d)
	}
}

// TestRecordNoAllocs gates the always-on contract: recording must not
// allocate.
func TestRecordNoAllocs(t *testing.T) {
	r := NewRing(64)
	var i int64
	if allocs := testing.AllocsPerRun(1000, func() {
		i++
		r.Record(KindSubmit, 0, uint64(i), i, 0)
	}); allocs != 0 {
		t.Errorf("Record allocates %.1f per event, want 0", allocs)
	}
}

// TestKindNames pins the wire names dumps are parsed by.
func TestKindNames(t *testing.T) {
	for k, want := range map[Kind]string{
		KindNote: "note", KindSubmit: "submit", KindDegrade: "degrade",
		KindModeSwitch:  "mode_switch",
		KindEpochSwitch: "epoch_switch", KindFault: "fault",
		KindDivergence: "divergence", KindHealth: "health",
	} {
		if k.String() != want {
			t.Fatalf("kind %d = %q, want %q", k, k.String(), want)
		}
	}
	if got := Kind(200).String(); got != "kind(200)" {
		t.Fatalf("unknown kind = %q", got)
	}
}
