package nvm

import (
	"testing"

	"counterlight/internal/cipher"
	"counterlight/internal/core"
	"counterlight/internal/epoch"
	"counterlight/internal/fault"
	"counterlight/internal/obs/flight"
)

func newNVM(t *testing.T, cfg Config) *Engine {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func pay(i int) cipher.Block {
	var b cipher.Block
	for j := range b {
		b[j] = byte(i*31 + j)
	}
	return b
}

// mustWrite writes block i (addr i*64) with a derived payload,
// alternating modes so both counter and counterless paths persist.
func mustWrite(t *testing.T, n *Engine, tag int64, i int) {
	t.Helper()
	mode := epoch.CounterMode
	if i%3 == 2 {
		mode = epoch.Counterless
	}
	if err := n.Write(tag, 0, uint64(i)*64, pay(i), mode); err != nil {
		t.Fatalf("write block %d: %v", i, err)
	}
}

// requireRecovered compares a recovered engine against its oracle:
// durable state (core.DiffState) and every block's read-back must
// match.
func requireRecovered(t *testing.T, got, want *core.Engine) {
	t.Helper()
	if d := core.DiffState(got, want); d != "" {
		t.Fatalf("after recovery: %s", d)
	}
	for _, a := range want.Blocks() {
		wp, _, werr := want.Read(a)
		gp, _, gerr := got.Read(a)
		if (werr == nil) != (gerr == nil) || (werr == nil && wp != gp) {
			t.Fatalf("block %#x read-back differs after recovery (%v vs %v)", a, gerr, werr)
		}
	}
}

// oracleFor replays the same writes on a bare engine.
func oracleFor(t *testing.T, blocks int) *core.Engine {
	t.Helper()
	e, err := core.NewEngine(core.DefaultEngineOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < blocks; i++ {
		mode := epoch.CounterMode
		if i%3 == 2 {
			mode = epoch.Counterless
		}
		if err := e.WriteAs(0, uint64(i)*64, pay(i), mode); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// Clean shutdown: flush, recover, everything identical — and the
// journal is empty because the flush truncated it.
func TestCleanShutdownRecovery(t *testing.T) {
	n := newNVM(t, Config{})
	for i := 0; i < 12; i++ {
		mustWrite(t, n, int64(i), i)
	}
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(n.Domain().journal) != 0 {
		t.Fatalf("journal holds %d bytes after flush, want 0", len(n.Domain().journal))
	}
	rec, rep, err := Recover(n.Domain(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 0 {
		t.Errorf("replayed %d entries after a clean flush, want 0", rep.Replayed)
	}
	if rep.Slot < 0 || rep.TornSlot || rep.TornTail {
		t.Errorf("clean recovery report: %+v", rep)
	}
	if rep.LastTag != 11 {
		t.Errorf("LastTag %d, want 11", rep.LastTag)
	}
	requireRecovered(t, rec.Core(), oracleFor(t, 12))
}

// Golden: crash before anything persists — recovery comes up empty.
func TestCrashBeforeFirstFlushEmpty(t *testing.T) {
	n := newNVM(t, Config{})
	n.ArmCrash(&fault.CrashPoint{Step: 1})
	if err := n.Write(0, 0, 0, pay(0), epoch.CounterMode); err != ErrCrashed {
		t.Fatalf("write returned %v, want ErrCrashed", err)
	}
	if !n.Crashed() {
		t.Fatal("engine not crashed")
	}
	rec, rep, err := Recover(n.Domain(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Slot != -1 || rep.Replayed != 0 || rep.Blocks != 0 || rep.LastTag != -1 {
		t.Errorf("empty recovery report: %+v", rep)
	}
	if got := rec.Core().Blocks(); len(got) != 0 {
		t.Errorf("recovered %d blocks from an empty domain", len(got))
	}
}

// Golden: crash between the two journal halves tears the record; the
// torn tail is truncated and the write is (correctly) lost.
func TestCrashTornJournalTail(t *testing.T) {
	n := newNVM(t, Config{})
	mustWrite(t, n, 0, 0)
	// Steps so far: 3 (two journal halves + data persist). The next
	// write's second journal half is step 5.
	n.ArmCrash(&fault.CrashPoint{Step: 5})
	if err := n.Write(1, 0, 64, pay(1), epoch.CounterMode); err != ErrCrashed {
		t.Fatalf("write returned %v, want ErrCrashed", err)
	}
	rec, rep, err := Recover(n.Domain(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TornTail {
		t.Error("torn journal tail not reported")
	}
	if rep.Replayed != 1 || rep.LastTag != 0 {
		t.Errorf("report %+v, want 1 entry replayed, LastTag 0", rep)
	}
	requireRecovered(t, rec.Core(), oracleFor(t, 1))
}

// Golden: crash after the journal append but before the data persist —
// redo replay restores the codeword from the journal entry alone.
func TestCrashBeforeDataPersist(t *testing.T) {
	n := newNVM(t, Config{})
	// Step 3 is the first write's data-persist step.
	n.ArmCrash(&fault.CrashPoint{Step: 3})
	if err := n.Write(0, 0, 0, pay(0), epoch.CounterMode); err != ErrCrashed {
		t.Fatalf("write returned %v, want ErrCrashed", err)
	}
	if _, ok := n.Domain().data[0]; ok {
		t.Fatal("data region persisted despite the crash")
	}
	rec, rep, err := Recover(n.Domain(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 1 || rep.LastTag != 0 {
		t.Errorf("report %+v, want 1 entry replayed covering tag 0", rep)
	}
	requireRecovered(t, rec.Core(), oracleFor(t, 1))
}

// Golden: crash mid-flush tears the target snapshot slot. Recovery
// must detect the torn slot by its MAC, fall back to the previous
// committed slot, and rebuild the difference from the journal — which
// a crash mid-flush never truncated.
func TestCrashMidFlushTornSlot(t *testing.T) {
	n := newNVM(t, Config{SnapshotChunk: 16})
	for i := 0; i < 6; i++ {
		mustWrite(t, n, int64(i), i)
	}
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 6; i < 10; i++ {
		mustWrite(t, n, int64(i), i)
	}
	// Crash on the second snapshot chunk: the first chunk already
	// clobbered the slot, so its bytes cannot match any MAC.
	n.ArmCrash(&fault.CrashPoint{Step: n.Domain().Steps() + 2})
	if err := n.Flush(); err != ErrCrashed {
		t.Fatalf("flush returned %v, want ErrCrashed", err)
	}
	rec, rep, err := Recover(n.Domain(), Config{SnapshotChunk: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TornSlot {
		t.Error("torn snapshot slot not reported")
	}
	if rep.Slot < 0 {
		t.Fatal("no fallback slot found")
	}
	if rep.Replayed != 4 {
		t.Errorf("replayed %d journal entries, want the 4 post-flush writes", rep.Replayed)
	}
	if rep.LastTag != 9 {
		t.Errorf("LastTag %d, want 9", rep.LastTag)
	}
	requireRecovered(t, rec.Core(), oracleFor(t, 10))
}

// Golden: the very first flush tears. No slot has ever committed, but
// the journal was never truncated either, so a full replay rebuilds
// everything.
func TestCrashMidFirstFlush(t *testing.T) {
	n := newNVM(t, Config{SnapshotChunk: 16})
	for i := 0; i < 5; i++ {
		mustWrite(t, n, int64(i), i)
	}
	n.ArmCrash(&fault.CrashPoint{Step: n.Domain().Steps() + 2})
	if err := n.Flush(); err != ErrCrashed {
		t.Fatalf("flush returned %v, want ErrCrashed", err)
	}
	rec, rep, err := Recover(n.Domain(), Config{SnapshotChunk: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TornSlot || rep.Slot != -1 {
		t.Errorf("report %+v, want torn slot and no committed slot", rep)
	}
	if rep.Replayed != 5 {
		t.Errorf("replayed %d, want full 5-entry journal", rep.Replayed)
	}
	requireRecovered(t, rec.Core(), oracleFor(t, 5))
}

// Golden: backpressure. A full write-pending queue forces an implicit
// flush; a crash inside that flush must leave the queue's dirty state
// recoverable — the replayed entries past the last committed snapshot
// are marked pending again.
func TestCrashWithFullPendingQueue(t *testing.T) {
	n := newNVM(t, Config{PendingLimit: 4, SnapshotChunk: 16})
	for i := 0; i < 3; i++ {
		mustWrite(t, n, int64(i), i)
	}
	if n.PendingLen() != 3 {
		t.Fatalf("pending %d, want 3", n.PendingLen())
	}
	// The 4th write fills the queue and triggers the implicit flush;
	// crash on its second snapshot chunk (3 steps for the write itself,
	// then chunk writes).
	n.ArmCrash(&fault.CrashPoint{Step: n.Domain().Steps() + 3 + 2})
	if err := n.Write(3, 0, 3*64, pay(3), epoch.CounterMode); err != ErrCrashed {
		t.Fatalf("write returned %v, want ErrCrashed", err)
	}
	if n.ImplicitFlushes() != 1 {
		t.Fatalf("implicit flushes %d, want 1", n.ImplicitFlushes())
	}
	rec, rep, err := Recover(n.Domain(), Config{PendingLimit: 4, SnapshotChunk: 16})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 4 {
		t.Errorf("replayed %d, want 4", rep.Replayed)
	}
	// No snapshot ever committed, so every replayed block is dirty
	// again — the backpressure state the crash interrupted.
	if rec.PendingLen() != 4 {
		t.Errorf("recovered pending queue %d, want 4", rec.PendingLen())
	}
	requireRecovered(t, rec.Core(), oracleFor(t, 4))
	// The recovered queue drains normally.
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if rec.PendingLen() != 0 {
		t.Errorf("pending %d after recovered flush, want 0", rec.PendingLen())
	}
}

// A recovered engine is a full engine: it keeps serving writes,
// flushing, and surviving further crashes.
func TestRecoveredEngineContinues(t *testing.T) {
	n := newNVM(t, Config{})
	for i := 0; i < 4; i++ {
		mustWrite(t, n, int64(i), i)
	}
	n.ArmCrash(&fault.CrashPoint{Step: n.Domain().Steps() + 2})
	if err := n.Write(4, 0, 4*64, pay(4), epoch.CounterMode); err != ErrCrashed {
		t.Fatal("crash point did not fire")
	}
	rec, _, err := Recover(n.Domain(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 8; i++ {
		mustWrite(t, rec, int64(i), i)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	rec2, rep, err := Recover(rec.Domain(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LastTag != 7 {
		t.Errorf("LastTag %d after second recovery, want 7", rep.LastTag)
	}
	requireRecovered(t, rec2.Core(), oracleFor(t, 8))
}

// Fault injections persist like writes: the post-fault codeword is
// journaled, so recovery reproduces the corrupted block exactly.
func TestFaultPersistence(t *testing.T) {
	n := newNVM(t, Config{})
	mustWrite(t, n, 0, 0)
	if err := n.InjectFault(1, 0, 2, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	rec, rep, err := Recover(n.Domain(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 2 {
		t.Errorf("replayed %d, want write + fault", rep.Replayed)
	}
	want := oracleFor(t, 1)
	if err := want.InjectFault(0, 2, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	requireRecovered(t, rec.Core(), want)
}

// The BreakRecovery knob must actually break recovery — the crash
// campaign's teeth check depends on it.
func TestBreakRecoveryLosesState(t *testing.T) {
	n := newNVM(t, Config{})
	for i := 0; i < 4; i++ {
		mustWrite(t, n, int64(i), i)
	}
	rec, rep, err := Recover(n.Domain(), Config{BreakRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 3 {
		t.Errorf("broken recovery replayed %d entries, want 3 (one dropped)", rep.Replayed)
	}
	// Block 3's counter-mode write was the dropped entry: its counter
	// update is gone (the data region still holds the codeword, which
	// is exactly why a counter/metadata diff is needed to catch this
	// class of bug).
	want := oracleFor(t, 4)
	if got, exp := rec.Core().Counters().Counter(3*64), want.Counters().Counter(3*64); got == exp {
		t.Error("broken recovery reproduced the dropped entry's counter anyway")
	}
}

// Crash and recovery leave their marks in the flight recorder.
func TestFlightEvents(t *testing.T) {
	ring := flight.NewRing(64)
	n := newNVM(t, Config{Flight: ring})
	mustWrite(t, n, 0, 0)
	n.ArmCrash(&fault.CrashPoint{Step: n.Domain().Steps() + 1})
	if err := n.Write(1, 0, 64, pay(1), epoch.CounterMode); err != ErrCrashed {
		t.Fatal("crash point did not fire")
	}
	if _, _, err := Recover(n.Domain(), Config{Flight: ring}); err != nil {
		t.Fatal(err)
	}
	var sawCrash, sawRecovery bool
	for _, ev := range ring.Snapshot() {
		switch ev.Kind {
		case flight.KindCrash:
			sawCrash = true
		case flight.KindRecovery:
			sawRecovery = true
		}
	}
	if !sawCrash || !sawRecovery {
		t.Errorf("flight ring: crash=%v recovery=%v, want both", sawCrash, sawRecovery)
	}
}

// Every entry point rejects work after the crash.
func TestCrashedEngineRejects(t *testing.T) {
	n := newNVM(t, Config{})
	n.ArmCrash(&fault.CrashPoint{Step: 1})
	if err := n.Write(0, 0, 0, pay(0), epoch.CounterMode); err != ErrCrashed {
		t.Fatal("expected crash")
	}
	if err := n.Write(1, 0, 64, pay(1), epoch.CounterMode); err != ErrCrashed {
		t.Errorf("post-crash write returned %v", err)
	}
	if _, _, err := n.Read(0); err != ErrCrashed {
		t.Errorf("post-crash read returned %v", err)
	}
	if err := n.Flush(); err != ErrCrashed {
		t.Errorf("post-crash flush returned %v", err)
	}
	if err := n.InjectFault(2, 0, 0, 1); err != ErrCrashed {
		t.Errorf("post-crash fault returned %v", err)
	}
}

// Snapshot slots alternate: two flushes land in different slots, and
// recovery picks the newer one.
func TestSnapshotSlotAlternation(t *testing.T) {
	n := newNVM(t, Config{})
	mustWrite(t, n, 0, 0)
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	seq1 := n.Domain().slots[0].seq
	mustWrite(t, n, 1, 1)
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	if n.Domain().slots[1].seq <= seq1 {
		t.Errorf("second flush seq %d not newer than first %d (slot not alternated?)",
			n.Domain().slots[1].seq, seq1)
	}
	_, rep, err := Recover(n.Domain(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Slot != 1 {
		t.Errorf("recovered from slot %d, want the newer slot 1", rep.Slot)
	}
}
