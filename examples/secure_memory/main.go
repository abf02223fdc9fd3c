// secure_memory drives the full functional pipeline the way a
// reliability/security qualification would: sweep faults over every
// chip position in both encryption modes, attempt the Fig. 10 counter
// replay, replay a whole block (undetected by design), and push a
// two-chip error to a detected uncorrectable error.
//
// Run: go run ./examples/secure_memory
package main

import (
	"fmt"
	"log"
	"math/rand"

	"counterlight/internal/cipher"
	"counterlight/internal/core"
	"counterlight/internal/ecc"
	"counterlight/internal/epoch"
)

func main() {
	engine, err := core.NewEngine(core.DefaultEngineOptions())
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2026))

	fmt.Println("== 1. Chipkill sweep: one fault per chip, both modes ==")
	corrected := 0
	for _, mode := range []epoch.Mode{epoch.CounterMode, epoch.Counterless} {
		for chip := 0; chip < ecc.TotalChips; chip++ {
			addr := uint64(0x4000) + uint64(chip)*64
			var plain cipher.Block
			rng.Read(plain[:])
			if err := engine.Write(addr, plain, mode); err != nil {
				log.Fatal(err)
			}
			if err := engine.InjectFault(addr, chip, rng.Uint64()|1); err != nil {
				log.Fatal(err)
			}
			got, info, err := engine.Read(addr)
			if err != nil {
				log.Fatalf("mode %v chip %d: %v", mode, chip, err)
			}
			if got != plain || !info.Corrected || info.BadChip != chip {
				log.Fatalf("mode %v chip %d: bad correction %+v", mode, chip, info)
			}
			corrected++
		}
	}
	fmt.Printf("corrected %d/20 single-chip faults (10 chip positions x 2 modes)\n\n", corrected)

	fmt.Println("== 2. Fig. 10: counter replay before a writeback ==")
	const victim = 0x9000
	var secret cipher.Block
	copy(secret[:], []byte("the new secret value: 0x1A"))
	if err := engine.Write(victim, secret, epoch.CounterMode); err != nil {
		log.Fatal(err)
	}
	// The counter block reaches DRAM when the controller's metadata
	// cache evicts it; the attacker snapshots it from the bus...
	engine.Counters().Evict(victim)
	oldCtr := engine.Counters().Counter(victim)
	oldMAC := engine.Counters().CounterBlockMAC(victim)
	// ...the victim writes again (counter advances, and is written
	// back on the next eviction)...
	if err := engine.Write(victim, secret, epoch.CounterMode); err != nil {
		log.Fatal(err)
	}
	engine.Counters().Evict(victim)
	// ...and the attacker reverts the counter block in DRAM.
	engine.Counters().ReplayCounter(victim, oldCtr, oldMAC)
	if err := engine.Write(victim, secret, epoch.CounterMode); err != nil {
		fmt.Printf("replayed counter caught on the writeback path: %v\n\n", err)
	} else {
		log.Fatal("counter replay went UNDETECTED — integrity tree broken")
	}

	// Repair the tree state for the rest of the demo.
	engine2, err := core.NewEngine(core.DefaultEngineOptions())
	if err != nil {
		log.Fatal(err)
	}
	engine = engine2

	fmt.Println("== 3. Whole-block replay: out of scope, by design ==")
	var v1, v2 cipher.Block
	copy(v1[:], []byte("account balance: $1,000,000"))
	copy(v2[:], []byte("account balance: $3"))
	if err := engine.Write(0xA000, v1, epoch.Counterless); err != nil {
		log.Fatal(err)
	}
	snap, _ := engine.Snapshot(0xA000)
	if err := engine.Write(0xA000, v2, epoch.Counterless); err != nil {
		log.Fatal(err)
	}
	engine.Restore(0xA000, snap)
	got, _, err := engine.Read(0xA000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed block read back as %q\n", string(got[:27]))
	fmt.Println("whole-block physical replay is not detected — counter-light deliberately")
	fmt.Println("matches counterless security here (only SGX-style full trees catch it)")
	fmt.Println()

	fmt.Println("== 4. Two-chip failure: detected uncorrectable, never silent ==")
	var data cipher.Block
	rng.Read(data[:])
	if err := engine.Write(0xB000, data, epoch.CounterMode); err != nil {
		log.Fatal(err)
	}
	engine.InjectFault(0xB000, 2, rng.Uint64()|1)
	engine.InjectFault(0xB000, 7, rng.Uint64()|1)
	if _, _, err := engine.Read(0xB000); err != nil {
		fmt.Printf("DUE raised as expected: %v\n", err)
	} else {
		log.Fatal("double-chip error silently consumed")
	}

	s := engine.Stats()
	fmt.Printf("\nengine stats: reads=%d writes=%d corrections=%d DUEs=%d memoHits=%d\n",
		s.Reads, s.Writes, s.Corrections, s.DUEs, s.MemoHits)
}
