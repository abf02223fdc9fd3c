package cipher

import (
	stdaes "crypto/aes"
	"reflect"
	"testing"

	"counterlight/internal/crypto/aes"
	"counterlight/internal/crypto/mix"
)

// build is one pair of engine constructors: the production crypto/aes
// engines or their textbook-AES reference twins.
type build struct {
	name string
	cls  func(dataKey, tweakKey, macKey []byte) (*Counterless, error)
	cm   func(key []byte, macSecret uint64, combine Combiner) (*CounterMode, error)
}

var (
	production = build{"stdlib", NewCounterless, NewCounterMode}
	reference  = build{"ref", NewReferenceCounterless, NewReferenceCounterMode}
	builds     = []build{production, reference}
)

func testCounterMode(t *testing.T, b build) *CounterMode {
	t.Helper()
	key := make([]byte, 16)
	key[0] = 0x42
	cm, err := b.cm(key, 0xfeedface, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

func testCounterless(t *testing.T, b build) *Counterless {
	t.Helper()
	dk := make([]byte, 16)
	dk[0] = 0x11
	tk := make([]byte, 16)
	tk[0] = 0x22
	cls, err := b.cls(dk, tk, []byte("batch-mac"))
	if err != nil {
		t.Fatal(err)
	}
	return cls
}

// TestConstructorsPickTheirAES pins which block cipher each
// constructor installs: the engines run crypto/aes, and the reference
// twins run the textbook aes.Cipher — so the oracle that recomputes
// through the twins can never end up checking crypto/aes against
// itself.
func TestConstructorsPickTheirAES(t *testing.T) {
	std, err := stdaes.NewCipher(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		b    build
		want reflect.Type
	}{
		{production, reflect.TypeOf(std)},
		{reference, reflect.TypeOf(&aes.Cipher{})},
	} {
		cls, cm := testCounterless(t, tc.b), testCounterMode(t, tc.b)
		for name, got := range map[string]any{"data key": cls.dataKey, "tweak key": cls.tweakKey, "counter-mode key": cm.key} {
			if reflect.TypeOf(got) != tc.want {
				t.Errorf("%s: %s runs on %T, want %v", tc.b.name, name, got, tc.want)
			}
		}
	}
}

// TestPadBatchMatchesPad checks the batched pad path against the
// single-pair entry points on both builds: PadBatch must reproduce
// Pad and the MAC OTP word exactly, and PadWithMAC must agree with
// Pad + OTP.
func TestPadBatchMatchesPad(t *testing.T) {
	for _, b := range builds {
		cm := testCounterMode(t, b)
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
				t.Fatalf("%s: PadBatch[%d] != Pad", b.name, i)
			}
			if want := cm.OTP(counters[i], addrs[i], WordsPerBlock); otps[i] != want {
				t.Fatalf("%s: PadBatch macOTP[%d] != OTP", b.name, i)
			}
			pad, otp := cm.PadWithMAC(counters[i], addrs[i])
			if pad != pads[i] || otp != otps[i] {
				t.Fatalf("%s: PadWithMAC[%d] disagrees with PadBatch", b.name, i)
			}
		}
		// nil macOTPs skips the MAC words but not the pads; the same
		// scratch is reusable across batch sizes.
		pads2 := make([]Block, n)
		cm.PadBatch(counters[:4], addrs[:4], pads2, nil, &s)
		for i := 0; i < 4; i++ {
			if pads2[i] != pads[i] {
				t.Fatalf("%s: nil-macOTPs PadBatch[%d] diverges", b.name, i)
			}
		}
	}
}

// TestMACFromOTP checks the split MAC entry point against the
// all-in-one MAC.
func TestMACFromOTP(t *testing.T) {
	cm := testCounterMode(t, reference)
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
// CounterMode surfaces of both builds against the reference.
func TestCipherBackendsAgree(t *testing.T) {
	refCls := testCounterless(t, reference)
	refCm := testCounterMode(t, reference)
	var plain Block
	for i := range plain {
		plain[i] = byte(i*7 + 1)
	}
	const addr, ctr, meta = 3 * 64, 17, 17
	wantCt := refCls.Encrypt(addr, plain)
	wantMac := refCls.MAC(addr, wantCt, meta)
	wantCmCt := refCm.Encrypt(ctr, addr, plain)
	wantCmMac := refCm.MAC(ctr, addr, plain, meta)
	for _, b := range builds {
		cls := testCounterless(t, b)
		cm := testCounterMode(t, b)
		if ct := cls.Encrypt(addr, plain); ct != wantCt {
			t.Fatalf("%s: Counterless.Encrypt diverges from ref", b.name)
		}
		if got := cls.Decrypt(addr, wantCt); got != plain {
			t.Fatalf("%s: Counterless.Decrypt does not invert", b.name)
		}
		if mac := cls.MAC(addr, wantCt, meta); mac != wantMac {
			t.Fatalf("%s: Counterless.MAC diverges from ref", b.name)
		}
		if ct := cm.Encrypt(ctr, addr, plain); ct != wantCmCt {
			t.Fatalf("%s: CounterMode.Encrypt diverges from ref", b.name)
		}
		if mac := cm.MAC(ctr, addr, plain, meta); mac != wantCmMac {
			t.Fatalf("%s: CounterMode.MAC diverges from ref", b.name)
		}
	}
}

// The single-pair cipher entry points are the engine's per-op inner
// loop; they must not allocate on either build.
func TestCipherNoAllocs(t *testing.T) {
	for _, b := range builds {
		cls := testCounterless(t, b)
		cm := testCounterMode(t, b)
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
				t.Errorf("%s/%s allocates %.1f per op, want 0", b.name, name, allocs)
			}
		}
	}
}
