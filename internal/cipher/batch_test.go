package cipher

import (
	"testing"

	"counterlight/internal/crypto/aes"
	"counterlight/internal/crypto/mix"
)

func testCounterMode(t *testing.T, backend string) *CounterMode {
	t.Helper()
	key := make([]byte, 16)
	key[0] = 0x42
	cm, err := NewCounterModeBackend(backend, key, 0xfeedface, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

func testCounterless(t *testing.T, backend string) *Counterless {
	t.Helper()
	dk := make([]byte, 16)
	dk[0] = 0x11
	tk := make([]byte, 16)
	tk[0] = 0x22
	cls, err := NewCounterlessBackend(backend, dk, tk, []byte("batch-mac"))
	if err != nil {
		t.Fatal(err)
	}
	return cls
}

// TestPadBatchMatchesPad checks the batched pad path against the
// single-pair entry points on every backend: PadBatch must reproduce
// Pad and the MAC OTP word exactly, and PadWithMAC must agree with
// Pad + OTP.
func TestPadBatchMatchesPad(t *testing.T) {
	for _, backend := range aes.BackendNames() {
		cm := testCounterMode(t, backend)
		const n = 9
		counters := make([]uint64, n)
		addrs := make([]uint64, n)
		for i := range counters {
			counters[i] = uint64(i * 3)
			addrs[i] = uint64(i) * 64
		}
		pads := make([]Block, n)
		otps := make([]mix.Word, n)
		var s BatchScratch
		cm.PadBatch(counters, addrs, pads, otps, &s)
		for i := 0; i < n; i++ {
			if want := cm.Pad(counters[i], addrs[i]); pads[i] != want {
				t.Fatalf("%s: PadBatch[%d] != Pad", backend, i)
			}
			if want := cm.OTP(counters[i], addrs[i], WordsPerBlock); otps[i] != want {
				t.Fatalf("%s: PadBatch macOTP[%d] != OTP", backend, i)
			}
			pad, otp := cm.PadWithMAC(counters[i], addrs[i])
			if pad != pads[i] || otp != otps[i] {
				t.Fatalf("%s: PadWithMAC[%d] disagrees with PadBatch", backend, i)
			}
		}
		// nil macOTPs skips the MAC words but not the pads; the same
		// scratch is reusable across batch sizes.
		pads2 := make([]Block, n)
		cm.PadBatch(counters[:4], addrs[:4], pads2, nil, &s)
		for i := 0; i < 4; i++ {
			if pads2[i] != pads[i] {
				t.Fatalf("%s: nil-macOTPs PadBatch[%d] diverges", backend, i)
			}
		}
	}
}

// TestMACFromOTP checks the split MAC entry point against the
// all-in-one MAC.
func TestMACFromOTP(t *testing.T) {
	cm := testCounterMode(t, aes.BackendRef)
	var plain Block
	for i := range plain {
		plain[i] = byte(i * 5)
	}
	want := cm.MAC(7, 128, plain, 7)
	otp := cm.OTP(7, 128, WordsPerBlock)
	if got := cm.MACFromOTP(otp, plain, 7); got != want {
		t.Fatalf("MACFromOTP = %#x, MAC = %#x", got, want)
	}
	_, otp2 := cm.PadWithMAC(7, 128)
	if got := cm.MACFromOTP(otp2, plain, 7); got != want {
		t.Fatalf("MACFromOTP(PadWithMAC otp) = %#x, MAC = %#x", got, want)
	}
}

// TestCipherBackendsAgree cross-checks the full Counterless and
// CounterMode surfaces across every backend against the reference.
func TestCipherBackendsAgree(t *testing.T) {
	refCls := testCounterless(t, aes.BackendRef)
	refCm := testCounterMode(t, aes.BackendRef)
	var plain Block
	for i := range plain {
		plain[i] = byte(i*7 + 1)
	}
	const addr, ctr, meta = 3 * 64, 17, 17
	wantCt := refCls.Encrypt(addr, plain)
	wantMac := refCls.MAC(addr, wantCt, meta)
	wantCmCt := refCm.Encrypt(ctr, addr, plain)
	wantCmMac := refCm.MAC(ctr, addr, plain, meta)
	for _, backend := range aes.BackendNames() {
		cls := testCounterless(t, backend)
		cm := testCounterMode(t, backend)
		if ct := cls.Encrypt(addr, plain); ct != wantCt {
			t.Fatalf("%s: Counterless.Encrypt diverges from ref", backend)
		}
		if got := cls.Decrypt(addr, wantCt); got != plain {
			t.Fatalf("%s: Counterless.Decrypt does not invert", backend)
		}
		if mac := cls.MAC(addr, wantCt, meta); mac != wantMac {
			t.Fatalf("%s: Counterless.MAC diverges from ref", backend)
		}
		if ct := cm.Encrypt(ctr, addr, plain); ct != wantCmCt {
			t.Fatalf("%s: CounterMode.Encrypt diverges from ref", backend)
		}
		if mac := cm.MAC(ctr, addr, plain, meta); mac != wantCmMac {
			t.Fatalf("%s: CounterMode.MAC diverges from ref", backend)
		}
		if cls.Backend() != backend || cm.Backend() != backend {
			t.Fatalf("Backend() does not report %q", backend)
		}
	}
}

// The single-pair cipher entry points are the engine's per-op inner
// loop; they must not allocate on any backend.
func TestCipherNoAllocs(t *testing.T) {
	for _, backend := range aes.BackendNames() {
		cls := testCounterless(t, backend)
		cm := testCounterMode(t, backend)
		var plain Block
		ct := cls.Encrypt(64, plain)
		checks := map[string]func(){
			"Counterless.Encrypt": func() { cls.Encrypt(64, plain) },
			"Counterless.Decrypt": func() { cls.Decrypt(64, ct) },
			"Counterless.MAC":     func() { cls.MAC(64, ct, 5) },
			"CounterMode.Pad":     func() { cm.Pad(9, 64) },
			"CounterMode.PadWithMAC": func() {
				cm.PadWithMAC(9, 64)
			},
			"CounterMode.MAC":        func() { cm.MAC(9, 64, plain, 9) },
			"CounterMode.CounterAES": func() { cm.CounterAES(9) },
		}
		for name, fn := range checks {
			if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
				t.Errorf("%s/%s allocates %.1f per op, want 0", backend, name, allocs)
			}
		}
	}
}
