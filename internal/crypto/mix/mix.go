// Package mix implements the logic that combines the counter-only AES
// result with the address-only AES result to form the final one-time
// pad (paper Fig. 15).
//
// RMCC combines the two 128-bit AES outputs with carry-less
// multiplication and truncation — a linear operation (Fig. 15a).
// Counter-light replaces it with barrel shifting for diffusion and a
// nonlinear S-box layer for confusion (Fig. 15b), because linearity
// makes the algebraic system of §IV-F much easier to set up and solve.
//
// Both variants are implemented so that internal/attack can contrast
// their algebraic complexity and the ablation benches can compare them.
package mix

import (
	"counterlight/internal/crypto/aes"
	"counterlight/internal/crypto/gf"
)

// Word is a 128-bit value handled as (hi, lo) uint64 halves.
type Word struct {
	Hi, Lo uint64
}

// XOR returns w ^ o.
func (w Word) XOR(o Word) Word { return Word{w.Hi ^ o.Hi, w.Lo ^ o.Lo} }

// RotL rotates the 128-bit word left by n bits (the barrel shifter).
func (w Word) RotL(n uint) Word {
	n %= 128
	if n == 0 {
		return w
	}
	if n == 64 {
		return Word{w.Lo, w.Hi}
	}
	if n < 64 {
		return Word{
			Hi: w.Hi<<n | w.Lo>>(64-n),
			Lo: w.Lo<<n | w.Hi>>(64-n),
		}
	}
	n -= 64
	return Word{
		Hi: w.Lo<<n | w.Hi>>(64-n),
		Lo: w.Hi<<n | w.Lo>>(64-n),
	}
}

// Bytes returns the big-endian byte representation.
func (w Word) Bytes() [16]byte {
	var b [16]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(w.Hi >> (56 - 8*i))
		b[8+i] = byte(w.Lo >> (56 - 8*i))
	}
	return b
}

// FromBytes parses a big-endian 16-byte value.
func FromBytes(b [16]byte) Word {
	var w Word
	for i := 0; i < 8; i++ {
		w.Hi = w.Hi<<8 | uint64(b[i])
		w.Lo = w.Lo<<8 | uint64(b[8+i])
	}
	return w
}

// Linear is RMCC's combining function (Fig. 15a): the low 128 bits of
// the carry-less product of the counter-AES and address-AES results.
// Every output bit is an XOR of products of one counter bit and one
// address bit — linear in each input given the other, which is what
// the paper criticizes.
func Linear(counterAES, addrAES Word) Word {
	// 128x128 carry-less multiply, truncated to the low 128 bits: the
	// low-by-low product, plus the low halves of the two cross
	// products shifted up by 64.
	hi, lo := gf.ClMul64(counterAES.Lo, addrAES.Lo)
	_, cross1 := gf.ClMul64(counterAES.Hi, addrAES.Lo)
	_, cross2 := gf.ClMul64(counterAES.Lo, addrAES.Hi)
	return Word{hi ^ cross1 ^ cross2, lo}
}

// Nonlinear is Counter-light's combining function (Fig. 15b):
//
//  1. barrel-shift the counter-AES result by an amount taken from the
//     address-AES result and XOR with the address-AES result,
//  2. spread each bit across the word with two fixed rotations
//     (diffusion: t ^= rotl(t,29) ^ rotl(t,71)),
//  3. pass every byte through the AES S-box (confusion),
//  4. diffuse once more and barrel-shift by a second address-derived
//     amount, folding the original counter-AES result back in.
//
// The S-box layer makes every output bit a high-degree boolean
// function of the inputs, defeating the linear-system attack of §IV-F;
// the rotation network ensures a single flipped input bit reaches
// several S-boxes (avalanche), which the tests verify.
func Nonlinear(counterAES, addrAES Word) Word {
	shift1 := uint(addrAES.Lo & 127)
	shift2 := uint(addrAES.Hi & 127)
	t := counterAES.RotL(shift1).XOR(addrAES)
	t = t.XOR(t.RotL(29)).XOR(t.RotL(71))
	tb := t.Bytes()
	for i := range tb {
		tb[i] = SBox(tb[i])
	}
	v := FromBytes(tb)
	v = v.XOR(v.RotL(13))
	return v.RotL(shift2).XOR(counterAES)
}

// SBox exposes the AES S-box for the attack model, which needs the
// exact boolean circuit of the combining logic.
func SBox(b byte) byte { return aes.SBox(b) }
