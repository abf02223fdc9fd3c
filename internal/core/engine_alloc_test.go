package core

import (
	"reflect"
	"testing"

	"counterlight/internal/cipher"
	"counterlight/internal/crypto/aes"
	"counterlight/internal/epoch"
)

func allocTestEngine(t *testing.T) *Engine {
	t.Helper()
	opts := DefaultEngineOptions()
	opts.MemSize = 1 << 20
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func allocTestBlock(seed byte) cipher.Block {
	var b cipher.Block
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

// TestReadHitNoAllocs pins the fault-free read path at zero
// allocations per operation in both encryption modes — the hot-path
// guarantee the clbench engine/read_hit benchmark gates in CI.
func TestReadHitNoAllocs(t *testing.T) {
	e := allocTestEngine(t)
	if err := e.Write(0, allocTestBlock(1), epoch.CounterMode); err != nil {
		t.Fatal(err)
	}
	if err := e.Write(64, allocTestBlock(2), epoch.Counterless); err != nil {
		t.Fatal(err)
	}
	for name, addr := range map[string]uint64{"counter": 0, "counterless": 64} {
		// Warm up once (lazy pad-cache fill) and check correctness.
		if _, _, err := e.Read(addr); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			if _, _, err := e.Read(addr); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s read hit allocates %.1f per op, want 0", name, allocs)
		}
	}
}

// TestEngineCipherBackends checks the engine's crypto/aes ciphers
// against its textbook-AES reference twins: every stored codeword
// decrypts and MAC-verifies through the twins, reads return the
// written plaintext, the twins run the textbook aes.Cipher (so the
// oracle never checks crypto/aes against itself), and they agree with
// the engine's own ciphers on a sample pad and MAC.
func TestEngineCipherBackends(t *testing.T) {
	e := allocTestEngine(t)
	if e.CipherBackend() != "stdlib" {
		t.Fatalf("CipherBackend() = %q, want stdlib", e.CipherBackend())
	}
	refCm, refCls := e.ReferenceCounterCipher(), e.ReferenceCounterlessCipher(0)
	textbook := reflect.TypeOf(&aes.Cipher{})
	for _, f := range []struct {
		c     any
		field string
	}{{refCm, "key"}, {refCls, "dataKey"}, {refCls, "tweakKey"}} {
		if typ := reflect.ValueOf(f.c).Elem().FieldByName(f.field).Elem().Type(); typ != textbook {
			t.Fatalf("reference twin's %s runs on %v, want %v", f.field, typ, textbook)
		}
	}
	for i, mode := range []epoch.Mode{epoch.CounterMode, epoch.Counterless, epoch.CounterMode} {
		addr := uint64(i) * 64
		blk := allocTestBlock(byte(i))
		if err := e.Write(addr, blk, mode); err != nil {
			t.Fatal(err)
		}
		cw, _ := e.Snapshot(addr)
		meta := cw.DecodeMeta()
		var plain cipher.Block
		var mac uint64
		if mode == epoch.CounterMode {
			plain = refCm.Decrypt(meta, addr, cw.Block())
			mac = refCm.MAC(meta, addr, plain, uint32(meta))
		} else {
			plain = refCls.Decrypt(addr, cw.Block())
			mac = refCls.MAC(addr, cw.Block(), uint32(meta))
		}
		if plain != blk || mac != cw.MAC {
			t.Fatalf("%v: stored codeword at %#x diverges from the reference twins", mode, addr)
		}
		got, _, err := e.Read(addr)
		if err != nil {
			t.Fatal(err)
		}
		if got != blk {
			t.Fatalf("%v: read returned wrong plaintext", mode)
		}
	}
	var b cipher.Block
	if got, want := refCm.Pad(5, 128), e.CounterCipher().Pad(5, 128); got != want {
		t.Fatal("reference counter cipher diverges")
	}
	if got, want := refCls.MAC(128, b, 7), e.CounterlessCipher(0).MAC(128, b, 7); got != want {
		t.Fatal("reference counterless cipher diverges")
	}
}
