package fleet

import (
	"fmt"

	"hibernator/internal/scenario"
	"hibernator/internal/sim"
	"hibernator/internal/trace"
)

// tenantSource wraps one tenant's generator: offsets shift into the
// tenant's private slice of the array volume (disjoint working sets, the
// spatial skew migration policies exploit) and every request carries the
// tenant's id for per-tenant latency attribution via sim.Config.OnResponse.
type tenantSource struct {
	src    trace.Source
	base   int64
	tenant int
}

// Next implements trace.Source.
func (s *tenantSource) Next() (trace.Request, bool) {
	r, ok := s.src.Next()
	if !ok {
		return trace.Request{}, false
	}
	r.Off += s.base
	r.Tenant = s.tenant
	return r, true
}

// buildWorkload merges the assigned tenants' streams into one
// time-ordered source over the array's logical volume. Each tenant gets
// an equal contiguous slice of the volume; trace.Merge breaks arrival
// ties by source order, which is tenant-id order here, so the merged
// stream is deterministic. An array with no assigned tenants idles for
// the whole run (policies still act; only the request pump is empty).
func buildWorkload(cfg *Config, assigned []Tenant, simCfg sim.Config) (trace.Source, error) {
	if len(assigned) == 0 {
		return trace.NewSliceSource(nil), nil
	}
	vol, err := sim.LogicalBytes(simCfg)
	if err != nil {
		return nil, err
	}
	slice := vol / int64(len(assigned))
	if slice <= 0 {
		return nil, fmt.Errorf("fleet: volume %d B too small for %d tenants", vol, len(assigned))
	}
	srcs := make([]trace.Source, len(assigned))
	for i, t := range assigned {
		src, err := scenario.NewWorkload(t.Workload, t.Seed, slice, cfg.Duration, t.Rate)
		if err != nil {
			return nil, err
		}
		srcs[i] = &tenantSource{src: src, base: int64(i) * slice, tenant: t.ID}
	}
	return trace.NewMerge(srcs...), nil
}
