package mcpool

import (
	"fmt"
	"math/rand"
	"sync"

	"counterlight/internal/cipher"
	"counterlight/internal/epoch"
)

// ScheduleConfig shapes a deterministic synthetic workload.
type ScheduleConfig struct {
	Ops          int     // total requests (default 10 000)
	Blocks       int     // working-set size in 64-byte blocks (default 1024)
	ReadFraction float64 // fraction of ops that are reads: 0 gives none, a value outside [0,1] gives 0.5
	VMs          int     // writes round-robin VM IDs in [0, VMs) (default 1)
	Seed         int64
}

// Schedule generates a reproducible request trace: explicit write
// modes (≈2% counterless, the rest counter mode — no Auto, so the
// trace is load-independent) and reads only of already-written
// blocks. The same config and seed always yield the same trace.
func Schedule(cfg ScheduleConfig) []Request {
	if cfg.Ops <= 0 {
		cfg.Ops = 10_000
	}
	if cfg.Blocks <= 0 {
		cfg.Blocks = 1024
	}
	if cfg.ReadFraction < 0 || cfg.ReadFraction > 1 {
		cfg.ReadFraction = 0.5
	}
	if cfg.VMs <= 0 {
		cfg.VMs = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	written := make([]uint64, 0, cfg.Blocks)
	seen := make(map[uint64]bool, cfg.Blocks)
	reqs := make([]Request, 0, cfg.Ops)
	for len(reqs) < cfg.Ops {
		addr := uint64(rng.Intn(cfg.Blocks)) * 64
		if len(written) > 0 && rng.Float64() < cfg.ReadFraction {
			reqs = append(reqs, Request{
				Kind: OpRead,
				Addr: written[rng.Intn(len(written))],
			})
			continue
		}
		mode := epoch.CounterMode
		if rng.Float64() < 0.02 {
			mode = epoch.Counterless
		}
		var data cipher.Block
		rng.Read(data[:])
		reqs = append(reqs, Request{
			Kind: OpWrite,
			Addr: addr,
			VM:   rng.Intn(cfg.VMs),
			Mode: mode,
			Data: data,
		})
		if !seen[addr] {
			seen[addr] = true
			written = append(written, addr)
		}
	}
	return reqs
}

// RunPartitioned replays a schedule through the pool with the given
// number of submitter goroutines, partitioned by block: submitter g
// owns every request whose block index is ≡ g (mod workers) and
// submits its share in trace order, pipelined (futures collected
// after all submits). Single-owner partitioning keeps each block's
// program order intact under any concurrency level, so the result
// slice — indexed like the schedule — is the same for every workers
// value whenever workers is a multiple relationship with the pool's
// shard count makes the apply order deterministic (in particular
// workers == NumShards, where each submitter feeds exactly one
// shard's FIFO).
func RunPartitioned(p *Pool, sched []Request, workers int) ([]Response, error) {
	if workers <= 0 {
		workers = 1
	}
	resps := make([]Response, len(sched))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			futs := make([]*Future, 0, len(sched)/workers+1)
			idxs := make([]int, 0, len(sched)/workers+1)
			for i, req := range sched {
				if int((req.Addr>>6)%uint64(workers)) != g {
					continue
				}
				fut, err := p.Submit(req)
				if err != nil {
					errs[g] = fmt.Errorf("mcpool: submitter %d at op %d: %w", g, i, err)
					break
				}
				futs = append(futs, fut)
				idxs = append(idxs, i)
			}
			for k, fut := range futs {
				resps[idxs[k]] = fut.Wait()
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return resps, err
		}
	}
	return resps, nil
}
