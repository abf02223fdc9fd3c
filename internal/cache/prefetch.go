package cache

// Prefetcher suggests block addresses to fetch ahead of the demand
// stream. The core model feeds every demand access through Observe and
// issues fills for the returned addresses (Table I: next-line
// prefetchers at L1/L2 and stride prefetchers with degree 1 at L1 and
// degree 2 at L2).
type Prefetcher interface {
	// Observe is called with each demand access (by block-aligned
	// address and an access-stream identifier, e.g. a synthetic PC).
	// It appends the addresses to prefetch to dst and returns the
	// extended slice, so a caller that reuses one buffer allocates
	// nothing per access.
	Observe(dst []uint64, addr uint64, stream uint64) []uint64
}

// NextLine prefetches the next Degree sequential blocks after each
// demand access.
type NextLine struct {
	BlockSize uint64
	Degree    int
}

// NewNextLine returns a next-line prefetcher with the given degree.
func NewNextLine(blockSize uint64, degree int) *NextLine {
	return &NextLine{BlockSize: blockSize, Degree: degree}
}

// Observe implements Prefetcher.
func (p *NextLine) Observe(dst []uint64, addr uint64, _ uint64) []uint64 {
	base := addr - addr%p.BlockSize
	for i := 1; i <= p.Degree; i++ {
		dst = append(dst, base+uint64(i)*p.BlockSize)
	}
	return dst
}

// strideStreams bounds the stride table like hardware would; a few
// streams per core is the common case.
const strideStreams = 256

// strideEntry tracks one access stream's last address and stride.
type strideEntry struct {
	last   uint64
	stride int64
	seen   uint64 // Stride.clock at the stream's latest access
}

// Stride detects constant-stride streams per stream identifier and
// prefetches Degree blocks ahead along the stride. Irregular
// (pointer-chasing) streams never build confidence, so the prefetcher
// stays silent for them — the distinction at the heart of the paper's
// regular-vs-irregular results.
type Stride struct {
	BlockSize uint64
	Degree    int
	table     map[uint64]*strideEntry
	clock     uint64
}

// NewStride returns a stride prefetcher with the given degree.
func NewStride(blockSize uint64, degree int) *Stride {
	return &Stride{
		BlockSize: blockSize,
		Degree:    degree,
		table:     make(map[uint64]*strideEntry),
	}
}

// Observe implements Prefetcher. A new stream arriving at a full table
// replaces the least recently observed one, so the suggestions are a
// function of the access sequence alone.
func (p *Stride) Observe(dst []uint64, addr uint64, stream uint64) []uint64 {
	p.clock++
	e, ok := p.table[stream]
	if !ok {
		if len(p.table) >= strideStreams {
			e = p.evictOldest()
		} else {
			e = new(strideEntry)
		}
		*e = strideEntry{last: addr, seen: p.clock}
		p.table[stream] = e
		return dst
	}
	e.seen = p.clock
	stride := int64(addr) - int64(e.last)
	if stride == e.stride && stride != 0 {
		// Two consecutive equal deltas confirm the stream.
		for i := 1; i <= p.Degree; i++ {
			target := int64(addr) + stride*int64(i)
			if target >= 0 {
				dst = append(dst, uint64(target))
			}
		}
	} else {
		e.stride = stride
	}
	e.last = addr
	return dst
}

// evictOldest removes the least recently observed stream and returns
// its entry for reuse. seen values are distinct, so the choice does
// not depend on map iteration order.
func (p *Stride) evictOldest() *strideEntry {
	var oldest uint64
	var victim *strideEntry
	for k, e := range p.table {
		if victim == nil || e.seen < victim.seen {
			oldest, victim = k, e
		}
	}
	delete(p.table, oldest)
	return victim
}

// Composite fans a demand access out to several prefetchers.
type Composite struct {
	Prefetchers []Prefetcher
}

// Observe implements Prefetcher by concatenating all suggestions.
func (p *Composite) Observe(dst []uint64, addr uint64, stream uint64) []uint64 {
	for _, pf := range p.Prefetchers {
		dst = pf.Observe(dst, addr, stream)
	}
	return dst
}
