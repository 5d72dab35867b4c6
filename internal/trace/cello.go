package trace

import (
	"fmt"
	"math/rand"

	"hibernator/internal/dist"
)

// CelloConfig parameterizes the Cello-like file-server generator: bursts
// of mostly-sequential I/O arriving on a strong diurnal cycle, spread
// unevenly across logical volumes. The long quiet troughs are what
// spin-down policies exploit; the bursts are what breaks them.
type CelloConfig struct {
	Seed        int64
	VolumeBytes int64
	Duration    float64

	// Diurnal burst-arrival profile: bursts/second oscillating between
	// NightRate and DayRate with the given period (default 86400 s) and
	// day peak at phase 0.5.
	NightRate float64 // default 0.02 bursts/s
	DayRate   float64 // default 2.0 bursts/s
	DayPeriod float64 // default 86400

	// Bursts: Pareto-distributed request count (shape BurstAlpha, minimum
	// BurstMin, default 1.5/4) with exponential intra-burst gaps of mean
	// IntraGap seconds (default 0.01).
	BurstAlpha float64
	BurstMin   float64
	IntraGap   float64

	// Volumes partitions the address space; per-volume weights fall off as
	// 1/rank. SeqProb is the chance each subsequent request in a burst
	// continues sequentially (default 0.7).
	Volumes      int // default 8
	SeqProb      float64
	ReadFraction float64 // default 0.6

	// SizesBytes/SizeWeights: default 8/32/64 KiB at 0.5/0.3/0.2.
	SizesBytes  []int64
	SizeWeights []float64

	Align int64 // default 4096
}

func (c *CelloConfig) applyDefaults() error {
	if c.VolumeBytes <= 0 || c.Duration <= 0 {
		return fmt.Errorf("trace: cello needs positive volume and duration")
	}
	if c.NightRate == 0 {
		c.NightRate = 0.02
	}
	if c.DayRate == 0 {
		c.DayRate = 2.0
	}
	if c.NightRate < 0 || c.DayRate < c.NightRate {
		return fmt.Errorf("trace: cello rates invalid: night %v day %v", c.NightRate, c.DayRate)
	}
	if c.DayPeriod == 0 {
		c.DayPeriod = 86400
	}
	if c.BurstAlpha == 0 {
		c.BurstAlpha = 1.5
	}
	if c.BurstMin == 0 {
		c.BurstMin = 4
	}
	if c.IntraGap == 0 {
		c.IntraGap = 0.01
	}
	if c.Volumes == 0 {
		c.Volumes = 8
	}
	if c.Volumes < 1 {
		return fmt.Errorf("trace: cello needs at least one volume")
	}
	if c.SeqProb == 0 {
		c.SeqProb = 0.7
	}
	if c.ReadFraction == 0 {
		c.ReadFraction = 0.6
	}
	if len(c.SizesBytes) == 0 {
		c.SizesBytes = []int64{8192, 32768, 65536}
		c.SizeWeights = []float64{0.5, 0.3, 0.2}
	}
	if len(c.SizesBytes) != len(c.SizeWeights) {
		return fmt.Errorf("trace: %d sizes but %d weights", len(c.SizesBytes), len(c.SizeWeights))
	}
	if c.Align == 0 {
		c.Align = 4096
	}
	return nil
}

// Cello generates the file-server stream. Bursts are serialized: a burst's
// requests are emitted before the next burst begins (if the next burst
// start would precede the tail of the current one, it is pushed back),
// which keeps the stream time-ordered without modeling client concurrency.
type Cello struct {
	cfg     CelloConfig
	rng     *rand.Rand
	bursts  *dist.NonHomogeneousPoisson
	lenDist *dist.Pareto
	gap     *dist.Exponential
	volume  *dist.Choice
	sizes   *dist.Choice
	isRead  *dist.Bernoulli
	seq     *dist.Bernoulli

	volBytes  int64
	burstTime float64 // start time of the latest burst
	lastEmit  float64

	// The current burst: left requests remain, the next at time t and
	// offset pos in the volume slice at base. Each request is drawn when
	// Next emits it; the generator owns its RNG, so the stream does not
	// depend on when Next is called, and no burst is ever buffered.
	left      int
	t         float64
	pos, base int64
	size      int64
	write     bool
}

// NewCello validates the configuration and builds the generator.
func NewCello(cfg CelloConfig) (*Cello, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	rng := dist.Source(cfg.Seed)
	weights := make([]float64, cfg.Volumes)
	for i := range weights {
		weights[i] = 1 / float64(i+1)
	}
	rate := dist.DiurnalRate(cfg.NightRate, cfg.DayRate, cfg.DayPeriod, 0.5)
	g := &Cello{
		cfg:      cfg,
		rng:      rng,
		bursts:   dist.NewNonHomogeneousPoisson(rng, rate, cfg.DayRate),
		lenDist:  dist.NewPareto(rng, cfg.BurstAlpha, cfg.BurstMin),
		gap:      dist.NewExponential(rng, 1/cfg.IntraGap),
		volume:   dist.NewChoice(rng, weights),
		sizes:    dist.NewChoice(rng, cfg.SizeWeights),
		isRead:   dist.NewBernoulli(rng, cfg.ReadFraction),
		seq:      dist.NewBernoulli(rng, cfg.SeqProb),
		volBytes: cfg.VolumeBytes / int64(cfg.Volumes),
	}
	if g.volBytes < 1<<20 {
		return nil, fmt.Errorf("trace: cello volume slice %d too small; need >= 1 MiB per volume", g.volBytes)
	}
	return g, nil
}

// Next implements Source.
func (g *Cello) Next() (Request, bool) {
	for g.left == 0 || g.t > g.cfg.Duration {
		if !g.startBurst() {
			return Request{}, false
		}
	}
	if g.pos+g.size > g.base+g.volBytes {
		g.pos = g.base // wrap within the volume
	}
	r := Request{Time: g.t, Off: g.pos, Size: g.size, Write: g.write}
	if g.seq.Sample() {
		g.pos += g.size
	} else {
		g.pos = g.base + g.rng.Int63n(g.volBytes-g.size)/g.cfg.Align*g.cfg.Align
		g.write = !g.isRead.Sample()
	}
	g.t += g.gap.Sample()
	g.left--
	g.lastEmit = r.Time
	return r, true
}

// startBurst draws the next burst's start, length, volume, request size,
// first offset and direction. It reports false once bursts start past
// the run's duration.
func (g *Cello) startBurst() bool {
	start := g.bursts.Next(g.burstTime)
	if start < g.lastEmit {
		start = g.lastEmit
	}
	g.burstTime = start
	if start > g.cfg.Duration {
		return false
	}
	n := int(g.lenDist.Sample())
	if n < 1 {
		n = 1
	}
	if n > 10000 {
		n = 10000 // clip the Pareto tail: one burst must not swallow the run
	}
	vol := int64(g.volume.Sample())
	g.base = vol * g.volBytes
	g.size = g.cfg.SizesBytes[g.sizes.Sample()]
	g.pos = g.base + g.rng.Int63n(g.volBytes-g.size)/g.cfg.Align*g.cfg.Align
	g.write = !g.isRead.Sample()
	g.left, g.t = n, start
	return true
}
