package cipher

import (
	"testing"

	"counterlight/internal/crypto/mix"
	"counterlight/internal/obs/prof"
)

// TestProbesObserveAndPreserveOutput: attaching probes must leave
// every output bit-identical and must actually count the hot-path
// calls (batched pads count per pad, not per call).
func TestProbesObserveAndPreserveOutput(t *testing.T) {
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) { testProbesObserveAndPreserveOutput(t, b) })
	}
}

func testProbesObserveAndPreserveOutput(t *testing.T, b build) {
	key := make([]byte, 16)
	for i := range key {
		key[i] = byte(i)
	}
	plain, err := b.cm(key, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	probed, err := b.cm(key, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	pf := prof.New(b.name)
	probed.SetProbes(pf.PadBatch, pf.MAC)

	const n = 32
	counters := make([]uint64, n)
	addrs := make([]uint64, n)
	for i := range counters {
		counters[i] = uint64(i + 1)
		addrs[i] = uint64(i) * 64
	}
	var s1, s2 BatchScratch
	padsA := make([]Block, n)
	padsB := make([]Block, n)
	otpsA := make([]mix.Word, n)
	otpsB := make([]mix.Word, n)
	plain.PadBatch(counters, addrs, padsA, otpsA, &s1)
	probed.PadBatch(counters, addrs, padsB, otpsB, &s2)
	for i := range padsA {
		if padsA[i] != padsB[i] || otpsA[i] != otpsB[i] {
			t.Fatalf("pad %d differs with probes attached", i)
		}
	}
	// One batched call is one observation; DoneN normalizes the
	// elapsed time to per-pad latency.
	if got := pf.PadBatch.Count(); got != 1 {
		t.Fatalf("pad probe counted %d, want 1 (one observation per batch call)", got)
	}

	var blk Block
	blk[0] = 0xAB
	if plain.MAC(3, 64, blk, 3) != probed.MAC(3, 64, blk, 3) {
		t.Fatal("MAC differs with probes attached")
	}
	if pf.MAC.Count() == 0 {
		t.Fatal("MAC probe never fired")
	}

	// Counterless MAC probe.
	k2 := make([]byte, 16)
	cl, err := b.cls(key, k2, []byte("mac-key"))
	if err != nil {
		t.Fatal(err)
	}
	cl2, err := b.cls(key, k2, []byte("mac-key"))
	if err != nil {
		t.Fatal(err)
	}
	cl2.SetMACProbe(pf.MAC)
	before := pf.MAC.Count()
	if cl.MAC(64, blk, 7) != cl2.MAC(64, blk, 7) {
		t.Fatal("counterless MAC differs with probe attached")
	}
	if pf.MAC.Count() != before+1 {
		t.Fatal("counterless MAC probe never fired")
	}
}

// TestProbedPadNoAllocs extends the cipher alloc gate to the probed
// configuration: sampling must not add steady-state allocations.
func TestProbedPadNoAllocs(t *testing.T) {
	key := make([]byte, 16)
	for _, b := range builds {
		cm, err := b.cm(key, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		pf := prof.New(b.name)
		cm.SetProbes(pf.PadBatch, pf.MAC)

		var ctr uint64
		if allocs := testing.AllocsPerRun(500, func() {
			ctr++
			pad, otp := cm.PadWithMAC(ctr, 64)
			var blk Block
			blk[0] = pad[0]
			_ = cm.MACFromOTP(otp, blk, uint32(ctr))
		}); allocs != 0 {
			t.Errorf("%s: probed PadWithMAC+MAC allocates %.1f per op, want 0", b.name, allocs)
		}
	}
}
