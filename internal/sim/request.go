package sim

import (
	"hibernator/internal/simevent"
	"hibernator/internal/trace"
)

// request is one foreground request's completion state: the request as
// the workload emitted it, its arrival time and, for a cache read that
// missed, the count of array reads still in flight. Requests are owned by
// their run and recycled through its free list (see DESIGN.md, "Op free
// lists"); each completion path's callback is bound once per struct, so a
// request costs no closure. A request is released when its response is
// recorded, which happens exactly once.
type request struct {
	pool      *requestPool
	r         trace.Request
	start     float64
	remaining int

	hitFn, routedFn func()
	arrayFn, missFn func(latency float64)
	next            *request
}

// requestPool hands out and recycles one run's requests.
type requestPool struct {
	engine *simevent.Engine
	// record receives every completed request with its response time.
	record func(r trace.Request, latency float64)
	free   *request
}

// get takes a request from the free list (allocating when it is empty)
// and stamps it with r and the current time.
func (p *requestPool) get(r trace.Request) *request {
	rq := p.free
	if rq == nil {
		rq = &request{pool: p}
		rq.hitFn, rq.routedFn = rq.cacheHit, rq.routed
		rq.arrayFn, rq.missFn = rq.complete, rq.missDone
	} else {
		p.free = rq.next
		rq.next = nil
	}
	rq.r, rq.start, rq.remaining = r, p.engine.Now(), 0
	return rq
}

// complete records the response and releases the request.
func (rq *request) complete(latency float64) {
	p, r := rq.pool, rq.r
	rq.next = p.free
	p.free = rq
	p.record(r, latency)
}

// cacheHit completes a request absorbed by the controller cache.
func (rq *request) cacheHit() { rq.complete(CacheHitLatency) }

// routed completes a request a Router took ownership of.
func (rq *request) routed() { rq.complete(rq.pool.engine.Now() - rq.start) }

// missDone fans in one array read of a cache miss; the last one completes
// the request, charged the cache lookup on top of the array time.
func (rq *request) missDone(float64) {
	rq.remaining--
	if rq.remaining == 0 {
		rq.complete(rq.pool.engine.Now() - rq.start + CacheHitLatency)
	}
}
