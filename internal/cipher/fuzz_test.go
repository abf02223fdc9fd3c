package cipher

import (
	"bytes"
	"testing"
)

// FuzzCipherBackends cross-checks the production crypto/aes engines
// (and the reference twins themselves) against the textbook-AES
// reference on the full cipher surface: counterless
// Encrypt/Decrypt/MAC and counter-mode Pad/PadWithMAC/Encrypt/MAC and
// Digest, for fuzzed keys, addresses, counters, and block contents.
// Any divergence is a correctness bug in the production path (or in
// the batching glue), so the target fails loudly on the first
// mismatch.
func FuzzCipherBackends(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), uint64(0), uint64(0), []byte(""), uint32(0))
	f.Add([]byte("counter-light-key-material!!...."), uint64(64), uint64(7), []byte("attack at dawn"), uint32(7))
	f.Add([]byte{0xff}, uint64(1<<40), uint64(1<<32-2), bytes.Repeat([]byte{0xa5}, 64), uint32(1<<32-1))
	f.Fuzz(func(t *testing.T, keyMat []byte, addr, counter uint64, data []byte, encMeta uint32) {
		// Derive the three key inputs from the fuzzed material: key
		// length cycles through 128/192/256-bit AES.
		keyLen := 16 + 8*(len(keyMat)%3)
		dataKey := make([]byte, keyLen)
		tweakKey := make([]byte, keyLen)
		macSecret := uint64(0x5eed)
		for i := 0; i < keyLen; i++ {
			if len(keyMat) > 0 {
				dataKey[i] = keyMat[i%len(keyMat)]
			}
			tweakKey[i] = dataKey[i] ^ 0x5c
			macSecret = macSecret*131 + uint64(dataKey[i])
		}
		var plain Block
		copy(plain[:], data)

		refCls, err := NewReferenceCounterless(dataKey, tweakKey, []byte("fuzz-mac"))
		if err != nil {
			t.Fatal(err)
		}
		refCm, err := NewReferenceCounterMode(dataKey, macSecret, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantCt := refCls.Encrypt(addr, plain)
		wantClsMAC := refCls.MAC(addr, wantCt, encMeta)
		wantPad := refCm.Pad(counter, addr)
		wantCmCt := refCm.Encrypt(counter, addr, plain)
		wantCmMAC := refCm.MAC(counter, addr, plain, encMeta)
		wantCtrAES := refCm.CounterAES(counter)
		freshRef, err := NewReferenceCounterMode(dataKey, macSecret, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantDigest := freshRef.Digest(plain, counter)

		for _, b := range builds {
			cls, err := b.cls(dataKey, tweakKey, []byte("fuzz-mac"))
			if err != nil {
				t.Fatal(err)
			}
			cm, err := b.cm(dataKey, macSecret, nil)
			if err != nil {
				t.Fatal(err)
			}
			if ct := cls.Encrypt(addr, plain); ct != wantCt {
				t.Errorf("%s: Counterless.Encrypt diverges from ref", b.name)
			}
			if got := cls.Decrypt(addr, wantCt); got != plain {
				t.Errorf("%s: Counterless.Decrypt(Encrypt(p)) != p", b.name)
			}
			if mac := cls.MAC(addr, wantCt, encMeta); mac != wantClsMAC {
				t.Errorf("%s: Counterless.MAC diverges from ref", b.name)
			}
			if pad := cm.Pad(counter, addr); pad != wantPad {
				t.Errorf("%s: CounterMode.Pad diverges from ref", b.name)
			}
			pad, otp := cm.PadWithMAC(counter, addr)
			if pad != wantPad {
				t.Errorf("%s: PadWithMAC pad diverges from Pad", b.name)
			}
			if want := cm.OTP(counter, addr, WordsPerBlock); otp != want {
				t.Errorf("%s: PadWithMAC OTP diverges from OTP", b.name)
			}
			if ct := cm.Encrypt(counter, addr, plain); ct != wantCmCt {
				t.Errorf("%s: CounterMode.Encrypt diverges from ref", b.name)
			}
			if got := cm.Decrypt(counter, addr, wantCmCt); got != plain {
				t.Errorf("%s: CounterMode.Decrypt(Encrypt(p)) != p", b.name)
			}
			if mac := cm.MAC(counter, addr, plain, encMeta); mac != wantCmMAC {
				t.Errorf("%s: CounterMode.MAC diverges from ref", b.name)
			}
			if got := cm.MACFromOTP(otp, plain, encMeta); got != wantCmMAC {
				t.Errorf("%s: MACFromOTP diverges from MAC", b.name)
			}
			// A Digest right after the MAC of the same block reuses
			// the MAC's dot-product partial.
			if got := cm.Digest(plain, counter); got != wantDigest {
				t.Errorf("%s: Digest after MAC diverges from a fresh ref", b.name)
			}
			if got := cm.CounterAES(counter); got != wantCtrAES {
				t.Errorf("%s: CounterAES diverges from ref", b.name)
			}
		}
	})
}
