// Package cipher implements the two memory-encryption engines the
// paper combines, operating on 64-byte memory blocks:
//
//   - Counterless (paper §II-A, Fig. 2a): AES-XTS-style. Each 16-byte
//     word is encrypted with a data-dependent AES whose tweak comes
//     from the block address, as in Intel TME/SGX2 and AMD SEV. The
//     per-block MAC is a SHA-3 hash (as in Intel MKTME).
//
//   - CounterMode (paper §II-B, Fig. 2b): AES-CTR-style. A one-time
//     pad is derived from the block's write counter and the word
//     address, and XORed with the data. The per-block MAC is the XOR
//     of a truncated OTP with a GF(2^64) dot product of the plaintext
//     (as in SGX1's MEE / Synergy).
//
// Both engines run on a crypto/cipher.Block: NewCounterless and
// NewCounterMode build on the standard library's crypto/aes, and
// NewReferenceCounterless and NewReferenceCounterMode build the same
// engines on the textbook aes.Cipher, the twin the differential oracle
// and the tests compare against. One engine call gathers every AES
// input block it needs and runs them through one per-block loop (ecb);
// PadBatch extends that to many memory blocks per call with
// caller-owned buffers.
//
// The engines carry per-instance scratch buffers to keep the hot path
// allocation-free, so a Counterless or CounterMode value must not be
// used by more than one goroutine at a time (internal/core engines are
// single-threaded; internal/mcpool serializes per shard).
//
// Both engines are purely functional: timing belongs to internal/core.
package cipher

import (
	stdaes "crypto/aes"
	stdcipher "crypto/cipher"
	"encoding/binary"
	"fmt"

	"counterlight/internal/crypto/aes"
	"counterlight/internal/crypto/gf"
	"counterlight/internal/crypto/keccak"
	"counterlight/internal/crypto/mix"
	"counterlight/internal/obs/prof"
)

// BlockSize is the memory block (cache line) size in bytes.
const BlockSize = 64

// WordsPerBlock is the number of 16-byte AES words per memory block.
const WordsPerBlock = BlockSize / aes.BlockSize

// Block is one 64-byte memory block.
type Block [BlockSize]byte

// Word returns the block's j-th 16-byte word as an array.
func (b *Block) Word(j int) [16]byte {
	var w [16]byte
	copy(w[:], b[16*j:16*j+16])
	return w
}

// SetWord stores w into the block's j-th 16-byte word.
func (b *Block) SetWord(j int, w [16]byte) {
	copy(b[16*j:16*j+16], w[:])
}

// Words64 returns the block as eight 64-bit little-endian words, the
// granularity of the MAC dot product (one word per memory chip).
func (b *Block) Words64() [8]uint64 {
	var w [8]uint64
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return w
}

// XOR returns b ^ o.
func (b Block) XOR(o Block) Block {
	for i := range b {
		b[i] ^= o[i]
	}
	return b
}

// BatchScratch amortizes the intermediate AES buffers of PadBatch.
// The zero value is ready to use; the buffers grow to the largest batch
// seen and are then reused. PadBatch never retains caller-supplied
// slices, but one scratch must not serve two concurrent callers.
type BatchScratch struct {
	in, out []byte
}

// grow returns n-byte in/out views, reallocating only when the batch
// outgrows every previous one.
func (s *BatchScratch) grow(n int) (in, out []byte) {
	if cap(s.in) < n {
		s.in = make([]byte, n)
		s.out = make([]byte, n)
	}
	return s.in[:n], s.out[:n]
}

// ---------------------------------------------------------------------------
// Counterless engine (AES-XTS style)
// ---------------------------------------------------------------------------

// Counterless encrypts blocks in the counterless (XTS) mode. It is not
// safe for concurrent use: the batch scratch is per-instance.
type Counterless struct {
	dataKey  stdcipher.Block
	tweakKey stdcipher.Block
	macKey   []byte

	// Scratch for the four-word batched data AES and the single-block
	// tweak AES of one Encrypt/Decrypt call.
	sin, sout [BlockSize]byte
	tin, tout [16]byte

	macProbe *prof.Probe // optional MAC64 latency probe (SetMACProbe)
}

// blockCipher builds an AES block cipher for a 16, 24, or 32 byte key.
type blockCipher func(key []byte) (stdcipher.Block, error)

// refBlock is a blockCipher on the textbook reference aes.Cipher.
func refBlock(key []byte) (stdcipher.Block, error) {
	c, err := aes.New(key)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// NewCounterless builds a counterless engine on crypto/aes. dataKey
// and tweakKey must be valid AES key lengths (16, 24, or 32 bytes);
// both halves of the XTS key pair conventionally have the same size.
func NewCounterless(dataKey, tweakKey, macKey []byte) (*Counterless, error) {
	return newCounterless(stdaes.NewCipher, dataKey, tweakKey, macKey)
}

// NewReferenceCounterless is NewCounterless on the textbook aes.Cipher.
func NewReferenceCounterless(dataKey, tweakKey, macKey []byte) (*Counterless, error) {
	return newCounterless(refBlock, dataKey, tweakKey, macKey)
}

func newCounterless(newBlock blockCipher, dataKey, tweakKey, macKey []byte) (*Counterless, error) {
	dk, err := newBlock(dataKey)
	if err != nil {
		return nil, fmt.Errorf("cipher: data key: %w", err)
	}
	tk, err := newBlock(tweakKey)
	if err != nil {
		return nil, fmt.Errorf("cipher: tweak key: %w", err)
	}
	if len(macKey) == 0 {
		return nil, fmt.Errorf("cipher: empty MAC key")
	}
	return &Counterless{
		dataKey:  dk,
		tweakKey: tk,
		macKey:   append([]byte(nil), macKey...),
	}, nil
}

// tweak computes the encrypted tweak for the block at addr, then the
// per-word tweaks T_j = T ⊗ α^j in GF(2^128) (Fig. 2a's
// "Tweak(Address) ⊗ α^j").
func (c *Counterless) tweaks(addr uint64) [WordsPerBlock][16]byte {
	c.tin = [16]byte{}
	binary.LittleEndian.PutUint64(c.tin[:], addr/BlockSize)
	c.tweakKey.Encrypt(c.tout[:], c.tin[:])
	t := c.tout
	var out [WordsPerBlock][16]byte
	for j := 0; j < WordsPerBlock; j++ {
		out[j] = t
		t = mulAlpha(t)
	}
	return out
}

// mulAlpha doubles a 16-byte value in GF(2^128) with the XTS
// polynomial x^128 + x^7 + x^2 + x + 1, little-endian bit order.
func mulAlpha(t [16]byte) [16]byte {
	var out [16]byte
	carry := byte(0)
	for i := 0; i < 16; i++ {
		out[i] = t[i]<<1 | carry
		carry = t[i] >> 7
	}
	if carry != 0 {
		out[0] ^= 0x87
	}
	return out
}

// ecb runs one AES direction (a block cipher's Encrypt or Decrypt)
// over the len(src)/16 independent blocks of src into dst: the batch
// loop behind every engine entry point.
func ecb(aesBlock func(dst, src []byte), dst, src []byte) {
	for i := 0; i < len(src); i += aes.BlockSize {
		aesBlock(dst[i:i+aes.BlockSize], src[i:i+aes.BlockSize])
	}
}

// xts computes out_j = AES(in_j ⊕ T_j) ⊕ T_j for each 16-byte word of
// the block at addr, with all four word AES computations in one batch.
// aesBlock is the data key's Encrypt or Decrypt.
func (c *Counterless) xts(aesBlock func(dst, src []byte), addr uint64, in Block) Block {
	tw := c.tweaks(addr)
	for j := 0; j < WordsPerBlock; j++ {
		for i := 0; i < 16; i++ {
			c.sin[16*j+i] = in[16*j+i] ^ tw[j][i]
		}
	}
	ecb(aesBlock, c.sout[:], c.sin[:])
	var out Block
	for j := 0; j < WordsPerBlock; j++ {
		for i := 0; i < 16; i++ {
			out[16*j+i] = c.sout[16*j+i] ^ tw[j][i]
		}
	}
	return out
}

// Encrypt encrypts a block stored at byte address addr:
// C_j = AES_k1(P_j ⊕ T_j) ⊕ T_j for each 16-byte word.
func (c *Counterless) Encrypt(addr uint64, plain Block) Block {
	return c.xts(c.dataKey.Encrypt, addr, plain)
}

// Decrypt inverts Encrypt. The AES here is data-dependent: it can only
// start after the ciphertext arrives, which is the latency problem the
// paper characterizes in §III.
func (c *Counterless) Decrypt(addr uint64, ct Block) Block {
	return c.xts(c.dataKey.Decrypt, addr, ct)
}

// MAC computes the 64-bit counterless-mode MAC: SHA-3 over the
// ciphertext, address, and EncryptionMetadata (paper §IV-C adds
// EncryptionMetadata as an input to the SHA-3 used for the counterless
// MAC; the MAC stays 64 bits "to keep hardware regular").
func (c *Counterless) MAC(addr uint64, ct Block, encMeta uint32) uint64 {
	t0 := c.macProbe.Start()
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[0:], addr)
	binary.LittleEndian.PutUint32(hdr[8:], encMeta)
	m := keccak.MAC64(c.macKey, hdr[:], ct[:])
	c.macProbe.Done(t0)
	return m
}

// ---------------------------------------------------------------------------
// Counter-mode engine (AES-CTR style with OTP combining)
// ---------------------------------------------------------------------------

// Combiner merges the counter-only AES result with the address-only
// AES result into a one-time pad (Fig. 15). mix.Linear reproduces
// RMCC; mix.Nonlinear is Counter-light's hardened variant.
type Combiner func(counterAES, addrAES mix.Word) mix.Word

// padBlocks is the AES block count of one full pad derivation: the
// counter block, one block per data word, and the MAC's dedicated OTP
// word (index WordsPerBlock).
const padBlocks = WordsPerBlock + 2

// CounterMode encrypts blocks with a counter-derived one-time pad.
// Per §IV-D, a single global key serves all VMs in counter mode, which
// is what makes the AES memoization table viable. It is not safe for
// concurrent use: the pad scratch is per-instance.
type CounterMode struct {
	key     stdcipher.Block
	macKeys []uint64
	combine Combiner

	// Scratch for one pad derivation (pin/pout) and for the
	// single-block CounterAES/AddrAES entry points (ain/aout).
	pin, pout [padBlocks * 16]byte
	ain, aout [16]byte

	// Optional profiler probes (SetProbes): per-pad derivation latency
	// and MAC latency.
	padProbe *prof.Probe
	macProbe *prof.Probe
}

// NewCounterMode builds a counter-mode engine on crypto/aes. key must
// be a valid AES key; macSecret seeds the GF(2^64) dot-product key
// schedule; combine selects the OTP combining logic (nil means
// mix.Nonlinear).
func NewCounterMode(key []byte, macSecret uint64, combine Combiner) (*CounterMode, error) {
	return newCounterMode(stdaes.NewCipher, key, macSecret, combine)
}

// NewReferenceCounterMode is NewCounterMode on the textbook aes.Cipher.
func NewReferenceCounterMode(key []byte, macSecret uint64, combine Combiner) (*CounterMode, error) {
	return newCounterMode(refBlock, key, macSecret, combine)
}

func newCounterMode(newBlock blockCipher, key []byte, macSecret uint64, combine Combiner) (*CounterMode, error) {
	k, err := newBlock(key)
	if err != nil {
		return nil, fmt.Errorf("cipher: counter-mode key: %w", err)
	}
	if combine == nil {
		combine = mix.Nonlinear
	}
	return &CounterMode{
		key:     k,
		macKeys: gf.KeySchedule(macSecret, 9), // 8 data words + 1 metadata word
		combine: combine,
	}, nil
}

// putPadInput serializes one AES input block: the 64-bit value, zero
// padding, and the domain-separator byte.
func putPadInput(dst []byte, v uint64, domain byte) {
	binary.LittleEndian.PutUint64(dst[0:8], v)
	for i := 8; i < 15; i++ {
		dst[i] = 0
	}
	dst[15] = domain
}

// Domain separators of the AES input classes: the two of Fig. 4, and
// Digest's.
const (
	domainCounter = 0xC7 // counter input
	domainAddr    = 0xAD // address input
	domainDigest  = 0xD6 // Digest's dot product
)

// CounterAES is the counter-only AES of Fig. 4: AES over the padded
// counter value. Its results are what the memoization table stores —
// a single counter value's result serves every block that currently
// holds that counter value.
func (c *CounterMode) CounterAES(counter uint64) mix.Word {
	putPadInput(c.ain[:], counter, domainCounter)
	c.key.Encrypt(c.aout[:], c.ain[:])
	return mix.FromBytes(c.aout)
}

// AddrAES is the address-only AES of Fig. 4 for one 16-byte word
// address. It depends only on the address, so hardware computes it
// while the data is in flight.
func (c *CounterMode) AddrAES(wordAddr uint64) mix.Word {
	putPadInput(c.ain[:], wordAddr, domainAddr)
	c.key.Encrypt(c.aout[:], c.ain[:])
	return mix.FromBytes(c.aout)
}

// OTP produces the one-time pad for word j of the block at addr,
// written with counter value counter.
func (c *CounterMode) OTP(counter, addr uint64, j int) mix.Word {
	return c.combine(c.CounterAES(counter), c.AddrAES(addr+uint64(16*j)))
}

// fillPadInputs writes the n AES input blocks of one pad derivation
// into dst: the counter block, then word addresses addr, addr+16, ...
// (block WordsPerBlock+1, when requested, is the MAC's dedicated OTP
// word at addr+16*WordsPerBlock).
func fillPadInputs(dst []byte, counter, addr uint64, n int) {
	putPadInput(dst[0:16], counter, domainCounter)
	for j := 1; j < n; j++ {
		putPadInput(dst[16*j:16*j+16], addr+uint64(16*(j-1)), domainAddr)
	}
}

// combinePad turns the AES outputs of one pad derivation (the
// counter block, one block per data word, then the MAC's word when
// macOTP is non-nil) into the block pad and the MAC's OTP word.
func (c *CounterMode) combinePad(out []byte, pad *Block, macOTP *mix.Word) {
	ctrAES := mix.FromBytes([16]byte(out[0:16]))
	for j := 0; j < WordsPerBlock; j++ {
		w := c.combine(ctrAES, mix.FromBytes([16]byte(out[16*(j+1):16*(j+2)])))
		pad.SetWord(j, w.Bytes())
	}
	if macOTP != nil {
		*macOTP = c.combine(ctrAES, mix.FromBytes([16]byte(out[16*(WordsPerBlock+1):16*(WordsPerBlock+2)])))
	}
}

// padInto derives the block pad (and, when macOTP is non-nil, the
// MAC's dedicated OTP word) with a single batched AES call.
func (c *CounterMode) padInto(pad *Block, counter, addr uint64, macOTP *mix.Word) {
	t0 := c.padProbe.Start()
	n := 1 + WordsPerBlock
	if macOTP != nil {
		n = padBlocks
	}
	fillPadInputs(c.pin[:16*n], counter, addr, n)
	ecb(c.key.Encrypt, c.pout[:16*n], c.pin[:16*n])
	c.combinePad(c.pout[:16*n], pad, macOTP)
	c.padProbe.Done(t0)
}

// Pad returns the full 64-byte pad for a block: one batched AES over
// the counter block and the four word-address blocks.
func (c *CounterMode) Pad(counter, addr uint64) Block {
	var pad Block
	c.padInto(&pad, counter, addr, nil)
	return pad
}

// PadWithMAC returns the block pad plus the MAC's dedicated OTP word
// (OTP(counter, addr, WordsPerBlock)) from one six-block batched AES
// call — everything a verified counter-mode read needs.
func (c *CounterMode) PadWithMAC(counter, addr uint64) (Block, mix.Word) {
	var pad Block
	var macOTP mix.Word
	c.padInto(&pad, counter, addr, &macOTP)
	return pad, macOTP
}

// PadBatch fills pads[i] — and macOTPs[i], when macOTPs is non-nil —
// for each (counters[i], addrs[i]) pair, batching the whole batch's
// AES (six blocks per pair) into one ecb call. pads and
// macOTPs are caller-owned (len >= len(counters)); s amortizes the AES
// buffers. No caller slice is retained.
func (c *CounterMode) PadBatch(counters, addrs []uint64, pads []Block, macOTPs []mix.Word, s *BatchScratch) {
	n := len(counters)
	if len(addrs) != n {
		panic("cipher: PadBatch counters/addrs length mismatch")
	}
	if len(pads) < n || (macOTPs != nil && len(macOTPs) < n) {
		panic("cipher: PadBatch output shorter than input")
	}
	t0 := c.padProbe.Start()
	in, out := s.grow(n * padBlocks * 16)
	for i := 0; i < n; i++ {
		fillPadInputs(in[i*padBlocks*16:(i+1)*padBlocks*16], counters[i], addrs[i], padBlocks)
	}
	ecb(c.key.Encrypt, out, in)
	for i := 0; i < n; i++ {
		var macOTP *mix.Word
		if macOTPs != nil {
			macOTP = &macOTPs[i]
		}
		c.combinePad(out[i*padBlocks*16:(i+1)*padBlocks*16], &pads[i], macOTP)
	}
	c.padProbe.DoneN(t0, n)
}

// Encrypt XORs the plaintext with the pad. Decryption is identical.
func (c *CounterMode) Encrypt(counter, addr uint64, plain Block) Block {
	return plain.XOR(c.Pad(counter, addr))
}

// Decrypt inverts Encrypt. Because the pad depends only on (counter,
// addr), it can be ready before the data arrives — the core of the
// paper's latency advantage.
func (c *CounterMode) Decrypt(counter, addr uint64, ct Block) Block {
	return ct.XOR(c.Pad(counter, addr))
}

// MAC computes the 64-bit counter-mode MAC: a truncated OTP XORed with
// a GF(2^64) dot product over the plaintext words and the
// EncryptionMetadata (paper §II-B and §IV-C; the counter value is the
// EncryptionMetadata in counter mode, so it enters through both the
// OTP and the dot product).
func (c *CounterMode) MAC(counter, addr uint64, plain Block, encMeta uint32) uint64 {
	// A dedicated OTP word (index WordsPerBlock, beyond the data
	// words) keeps the MAC pad independent of the data pads.
	return c.MACFromOTP(c.OTP(counter, addr, WordsPerBlock), plain, encMeta)
}

// MACFromOTP is MAC with the dedicated OTP word already in hand (the
// last word PadWithMAC and PadBatch emit), so a verified read pays for
// that AES exactly once.
func (c *CounterMode) MACFromOTP(otp mix.Word, plain Block, encMeta uint32) uint64 {
	t0 := c.macProbe.Start()
	m := otp.Lo ^ c.dot(plain, uint64(encMeta))
	c.macProbe.Done(t0)
	return m
}

// dot is the GF(2^64) dot product of the block's eight words and one
// more word under the MAC's power keys.
func (c *CounterMode) dot(b Block, last uint64) uint64 {
	words := b.Words64()
	var inputs [9]uint64
	copy(inputs[:], words[:])
	inputs[8] = last
	return gf.DotProduct(inputs[:], c.macKeys)
}

// Digest is a deterministic 64-bit MAC of a block and a tag word,
// built hash-then-encrypt from the engine's own secrets: the GF(2^64)
// dot product of the block's eight words and the tag under the MAC's
// power keys, encrypted as one AES block under the counter-mode key
// with its own domain separator, truncated to 64 bits. It takes no
// nonce, so equal inputs give equal digests; without the key nobody
// can compute one or test a guess of the block against it.
func (c *CounterMode) Digest(b Block, tag uint64) uint64 {
	putPadInput(c.ain[:], c.dot(b, tag), domainDigest)
	c.key.Encrypt(c.aout[:], c.ain[:])
	return binary.LittleEndian.Uint64(c.aout[:8])
}
