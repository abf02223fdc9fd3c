package core_test

import (
	"fmt"

	"counterlight/internal/cipher"
	"counterlight/internal/core"
	"counterlight/internal/epoch"
)

// The functional engine: write under counter mode, read back through
// the ECC-decoded metadata, survive a chip failure.
func ExampleEngine() {
	engine, err := core.NewEngine(core.DefaultEngineOptions())
	if err != nil {
		panic(err)
	}
	var plain cipher.Block
	copy(plain[:], []byte("secret"))

	if err := engine.Write(0x1000, plain, epoch.CounterMode); err != nil {
		panic(err)
	}
	_ = engine.InjectFault(0x1000, 2, 0xFFFF) // chip 2 dies

	got, info, err := engine.Read(0x1000)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(got[:6]), info.Corrected, info.BadChip)
	// Output: secret true 2
}
