package core

import "counterlight/internal/epoch"

// counterLightPipeline is the paper's design (§IV): EncryptionMetadata
// rides in the block's ECC parity, so reads never fetch counters, and
// the epoch bandwidth monitor switches writebacks to counterless mode
// when the channel saturates.
type counterLightPipeline struct {
	counterTraffic
}

func newCounterLightPipeline(ctx MCContext) *counterLightPipeline {
	return &counterLightPipeline{counterTraffic: newCounterTraffic(ctx)}
}

func (p *counterLightPipeline) ReadMiss(addr uint64, tm, dataDone int64, demand bool) int64 {
	cfg := p.ctx.Config()
	// The counter (or flag) decodes from the ECC parity, which is
	// available MetaDecodeLead before the full block (§IV-D).
	meta := p.blockMeta(addr / cfg.BlockSize)
	if modeOf(uint64(meta)) == epoch.Counterless {
		return dataDone + cfg.AESLat // counterless block
	}
	decodeAt := dataDone - cfg.MetaDecodeLead
	// A memo hit yields the 2 ns decode-to-OTP path of §IV-D.
	otpReady := decodeAt + p.memoOTP(meta, cfg.OTPAfterDecode)
	return max(dataDone, otpReady)
}

func (p *counterLightPipeline) Writeback(addr uint64, tw int64) {
	ctx := p.ctx
	cfg := ctx.Config()
	mode := epoch.CounterMode
	if cfg.DynamicSwitch {
		mode = ctx.WritebackMode(tw)
	}
	ctx.CountWriteback(mode == epoch.Counterless)
	if mode == epoch.Counterless {
		p.meta.set(addr/cfg.BlockSize, metaFlag)
		return
	}
	// A block that went counterless re-enters counter mode on its
	// next counter-mode writeback (the counter keeps its old value
	// in the counter block and advances past it).
	ctx.PostCounterUpdate(tw+cfg.CounterCacheLat, addr)
}
