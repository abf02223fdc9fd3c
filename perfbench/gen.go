package main

import (
	"math/rand"

	"counterlight/internal/cipher"
	"counterlight/internal/epoch"
	"counterlight/internal/mcpool"
)

// serviceSpec shapes one service workload's generated inputs.
type serviceSpec struct {
	blocks      int     // working-set size in 64-byte blocks
	ops         int     // measured ops per repetition
	readFrac    float64 // share of measured ops that are reads
	counterless float64 // share of writes stored in counterless mode
}

// op is one generated request in compact form. For a write, data
// indexes the payload in stream.data; for a read, it indexes the
// payload the read must return.
type op struct {
	kind  mcpool.OpKind
	mode  epoch.Mode
	block uint32
	data  uint32
}

// stream is a generated service workload: the fill that writes every
// block of the working set once, then the measured ops.
type stream struct {
	fill  []op
	ops   []op
	data  []cipher.Block // write payloads, in generation order
	final []uint32       // final[b] indexes block b's last payload
}

// generate builds a stream from seed alone: the same spec and seed
// always give the same requests. Every write names its mode
// explicitly (no Auto), so the stream does not depend on load, and
// reads only touch blocks the fill has already written.
func generate(spec serviceSpec, seed int64) stream {
	rng := rand.New(rand.NewSource(seed))
	st := stream{
		fill:  make([]op, spec.blocks),
		ops:   make([]op, spec.ops),
		final: make([]uint32, spec.blocks),
	}
	write := func(b int) op {
		mode := epoch.CounterMode
		if rng.Float64() < spec.counterless {
			mode = epoch.Counterless
		}
		var data cipher.Block
		rng.Read(data[:])
		st.final[b] = uint32(len(st.data))
		st.data = append(st.data, data)
		return op{kind: mcpool.OpWrite, mode: mode, block: uint32(b), data: st.final[b]}
	}
	for b := range st.fill {
		st.fill[b] = write(b)
	}
	for i := range st.ops {
		b := rng.Intn(spec.blocks)
		if rng.Float64() < spec.readFrac {
			st.ops[i] = op{kind: mcpool.OpRead, block: uint32(b), data: st.final[b]}
			continue
		}
		st.ops[i] = write(b)
	}
	return st
}

// request expands o into the pool request it stands for.
func (st *stream) request(o op) mcpool.Request {
	r := mcpool.Request{Kind: o.kind, Addr: uint64(o.block) * 64}
	if o.kind == mcpool.OpWrite {
		r.Mode = o.mode
		r.Data = st.data[o.data]
	}
	return r
}

// ok reports whether resp is the correct outcome of o: no error, and
// for a read the payload the stream last wrote to that block.
func (st *stream) ok(o op, resp mcpool.Response) bool {
	if resp.Err != nil {
		return false
	}
	return o.kind != mcpool.OpRead || resp.Plain == st.data[o.data]
}
