package sim

import (
	"strconv"

	"hibernator/internal/array"
	"hibernator/internal/cache"
	"hibernator/internal/obs"
	"hibernator/internal/simevent"
)

// obsSampler owns the run's metrics instruments and snapshots them on its
// sampling ticker. It exists only when cfg.Metrics is non-nil; a nil
// sampler keeps the disabled-run hot path free of observability work, so
// unobserved runs stay byte-identical to builds without the layer.
type obsSampler struct {
	cfg    *Config
	env    *Env
	arr    *array.Array
	engine *simevent.Engine
	cache  *cache.Cache

	dist     obs.IntervalDist // foreground response times this interval
	inflight obs.TimeWeighted

	requests   obs.Counter
	respMean   obs.Gauge
	respP95    obs.Gauge
	respP99    obs.Gauge
	windowMean obs.Gauge
	violation  obs.Gauge
	queueDepth obs.Gauge
	cacheHit   obs.Gauge
	energy     obs.Gauge
	events     obs.Gauge

	groupLevel  []obs.Gauge
	groupQueue  []obs.Gauge
	groupEnergy []obs.Gauge
	diskLevel   []obs.Gauge
	diskState   []obs.Gauge

	prevHits, prevMisses uint64
}

// newObsSampler registers the standard instrument set on cfg.Metrics.
// Registration order here is the column order of the exported streams;
// OBSERVABILITY.md documents each name and must move with this function.
func newObsSampler(cfg *Config, env *Env, arr *array.Array, engine *simevent.Engine, ctrlCache *cache.Cache) *obsSampler {
	reg := cfg.Metrics
	s := &obsSampler{cfg: cfg, env: env, arr: arr, engine: engine, cache: ctrlCache}
	s.requests = reg.Counter("requests")
	s.respMean = reg.Gauge("resp_mean_ms")
	s.respP95 = reg.Gauge("resp_p95_ms")
	s.respP99 = reg.Gauge("resp_p99_ms")
	s.windowMean = reg.Gauge("resp_window_mean_ms")
	s.violation = reg.Gauge("goal_violation")
	s.inflight = reg.TimeWeighted("inflight_tw")
	s.queueDepth = reg.Gauge("queue_depth")
	s.cacheHit = reg.Gauge("cache_hit_rate")
	s.energy = reg.Gauge("energy_j")
	s.events = reg.Gauge("events_processed")
	for gi := range arr.Groups() {
		p := "group" + strconv.Itoa(gi)
		s.groupLevel = append(s.groupLevel, reg.Gauge(p+"_level"))
		s.groupQueue = append(s.groupQueue, reg.Gauge(p+"_queue"))
		s.groupEnergy = append(s.groupEnergy, reg.Gauge(p+"_energy_j"))
	}
	for di := range arr.Disks() {
		p := "disk" + strconv.Itoa(di)
		s.diskLevel = append(s.diskLevel, reg.Gauge(p+"_level"))
		s.diskState = append(s.diskState, reg.Gauge(p+"_state"))
	}
	return s
}

// onArrival notes a foreground request entering the system at time now.
func (s *obsSampler) onArrival(now float64) {
	s.inflight.Add(now, 1)
}

// onComplete notes a foreground request leaving the system.
func (s *obsSampler) onComplete(now, lat float64) {
	s.inflight.Add(now, -1)
	s.dist.Observe(lat)
	s.requests.Inc()
}

// sample snapshots every instrument at simulated time now and commits the
// row to the registry.
func (s *obsSampler) sample(now float64) {
	_, mean, p95, p99 := s.dist.Flush()
	s.respMean.Set(mean * 1000)
	s.respP95.Set(p95 * 1000)
	s.respP99.Set(p99 * 1000)
	wmean, n := s.env.RespWindow.Mean(now)
	s.windowMean.Set(wmean * 1000)
	v := 0.0
	if s.cfg.RespGoal > 0 && n > 0 && wmean > s.cfg.RespGoal {
		v = 1
	}
	s.violation.Set(v)
	if s.cache != nil {
		hits, misses, _ := s.cache.Stats()
		dh, dm := hits-s.prevHits, misses-s.prevMisses
		s.prevHits, s.prevMisses = hits, misses
		if dh+dm > 0 {
			s.cacheHit.Set(float64(dh) / float64(dh+dm))
		} else {
			s.cacheHit.Set(0)
		}
	}
	// TotalEnergy closes each disk's state accounting up to now, which is
	// idempotent and safe mid-run; per-disk Energy() is then current too.
	s.energy.Set(s.arr.TotalEnergy())
	s.events.Set(float64(s.engine.Processed()))
	for gi, g := range s.arr.Groups() {
		s.groupLevel[gi].Set(float64(g.Level()))
		q, e := 0, 0.0
		for _, d := range g.Disks() {
			q += d.QueueLen()
			e += d.Energy()
		}
		s.groupQueue[gi].Set(float64(q))
		s.groupEnergy[gi].Set(e)
	}
	// queue_depth sums over every drive ever created (Array.Disks covers
	// members, the spare pool, retired drives and a spare mid-rebuild —
	// the old members+pool split dropped the rebuild target's queue).
	depth := 0
	for di, d := range s.arr.Disks() {
		s.diskLevel[di].Set(float64(d.Level()))
		s.diskState[di].Set(float64(d.State()))
		depth += d.QueueLen()
	}
	s.queueDepth.Set(float64(depth))
	s.cfg.Metrics.Sample(now)
}
