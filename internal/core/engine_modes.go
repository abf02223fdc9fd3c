package core

import (
	"counterlight/internal/cipher"
	"counterlight/internal/ctrblock"
	"counterlight/internal/ecc"
	"counterlight/internal/epoch"
)

// modeCipher is the functional counterpart of SchemePipeline: the
// per-mode verify/decrypt semantics one stored block obeys, selected
// by its decoded EncryptionMetadata. The timing pipelines (scheme.go)
// and the Engine dispatch through the same modeOf, so the two layers
// cannot drift on what a metadata value means.
type modeCipher interface {
	// Mode names the encryption mode this cipher implements.
	Mode() epoch.Mode
	// MAC recomputes the MAC the stored block should carry given its
	// decoded metadata; ok is false when the metadata cannot be legal
	// for this mode, which routes the read to the correction path.
	MAC(addr uint64, ct cipher.Block, meta uint64) (mac uint64, ok bool)
	// Decrypt recovers the plaintext, going through the memoization
	// table exactly as the hardware would; memoHit reports whether the
	// OTP came from the table.
	Decrypt(addr uint64, ct cipher.Block, meta uint64) (plain cipher.Block, memoHit bool)
	// Hypothesis is this mode's half of the Fig. 14 dual-hypothesis
	// error correction.
	Hypothesis(addr uint64) ecc.Hypothesis
}

// modeFor selects the functional cipher path for a decoded metadata
// value — the Engine-side analogue of newSchemePipeline's dispatch.
func (e *Engine) modeFor(meta uint64) modeCipher {
	if modeOf(meta) == epoch.Counterless {
		return counterlessCipherPath{e}
	}
	return counterCipherPath{e}
}

// counterCipherPath is counter-mode (AES-CTR, SGX1-style) semantics:
// one global key, OTP from counter‖address, MAC over the plaintext.
type counterCipherPath struct{ e *Engine }

func (p counterCipherPath) Mode() epoch.Mode { return epoch.CounterMode }

func (p counterCipherPath) MAC(addr uint64, ct cipher.Block, meta uint64) (uint64, bool) {
	if meta > ctrblock.CounterMax {
		return 0, false
	}
	// Counter-mode MAC is computed over the plaintext, which the MC
	// obtains by XORing the (pre-computable) pad. The pad and the MAC's
	// OTP word come from one batched derivation through the pad cache;
	// the Decrypt that follows a successful check reuses the same slot,
	// so a verified read pays for the pad AES exactly once.
	pad, otp := p.e.padFor(meta, addr)
	return p.e.cm.MACFromOTP(otp, ct.XOR(pad), uint32(meta)), true
}

func (p counterCipherPath) Decrypt(addr uint64, ct cipher.Block, meta uint64) (cipher.Block, bool) {
	e := p.e
	_, hit := e.memo.Lookup(uint32(meta))
	if hit {
		e.m.memoHits.Inc()
	} else {
		e.m.memoMisses.Inc()
	}
	pad, _ := e.padFor(meta, addr)
	return ct.XOR(pad), hit
}

func (p counterCipherPath) Hypothesis(addr uint64) ecc.Hypothesis {
	e := p.e
	return ecc.Hypothesis{
		Name: "counter",
		Meta: uint64(e.ctrs.Counter(addr)),
		MAC: func(ct cipher.Block, meta uint64) uint64 {
			pad, otp := e.padFor(meta, addr)
			return e.cm.MACFromOTP(otp, ct.XOR(pad), uint32(meta))
		},
	}
}

// counterlessCipherPath is counterless (AES-XTS, TME/SEV-style)
// semantics: per-VM key, data-dependent cipher, SHA-3 MAC over the
// ciphertext.
type counterlessCipherPath struct{ e *Engine }

func (p counterlessCipherPath) Mode() epoch.Mode { return epoch.Counterless }

func (p counterlessCipherPath) MAC(addr uint64, ct cipher.Block, meta uint64) (uint64, bool) {
	return p.e.clsFor(addr).MAC(addr, ct, uint32(meta)), true
}

func (p counterlessCipherPath) Decrypt(addr uint64, ct cipher.Block, _ uint64) (cipher.Block, bool) {
	return p.e.clsFor(addr).Decrypt(addr, ct), false
}

func (p counterlessCipherPath) Hypothesis(addr uint64) ecc.Hypothesis {
	e := p.e
	return ecc.Hypothesis{
		Name: "counterless",
		Meta: ctrblock.CounterlessFlag,
		MAC: func(ct cipher.Block, meta uint64) uint64 {
			return e.clsFor(addr).MAC(addr, ct, uint32(meta))
		},
	}
}
