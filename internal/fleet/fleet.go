// Package fleet lifts the simulator from one array to a datacenter: a
// fleet is a vector of array scenarios plus routing. Arrays are sampled
// with heterogeneous disk families and deployment vintages (staggered
// bathtub AFR curves, internal/diskmodel), a deterministic front-end
// router shards tenant workload streams across arrays by weighted
// rendezvous hashing, and a fleet-level power cap limits how many arrays
// may run disks above the low speed tier, enforced by the router's
// admission plan before any array spins up.
//
// Every array runs as one independent, seed-deterministic sim.Run on the
// internal/runner pool, so the invariant checker (Config.Check), fault
// injection and observability all compose exactly as they do for single-array runs.
// The fleet report is a pure function of Config: byte-identical across
// pool widths (Config.Par) and invocations, and its energy total is the
// sum of the per-array invariant-checked totals — IO and energy
// conservation hold at fleet scope because they hold per array and the
// roll-up is re-derived from two independent ledgers (see Report).
package fleet

import (
	"context"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"

	"hibernator/internal/invariant"
	"hibernator/internal/obs"
	"hibernator/internal/runner"
	"hibernator/internal/sim"
	"hibernator/internal/stats"
	"hibernator/internal/trace"
)

// Config describes one fleet simulation.
type Config struct {
	// Arrays is the fleet size; array i's shape is a pure function of
	// (Seed, i) — see SampleArray.
	Arrays int
	// Tenants is the number of tenant workload streams routed across the
	// fleet; tenant t's profile is a pure function of (Seed, t). 0 picks
	// the default of 4 per array.
	Tenants int
	// Seed drives every sample and every per-array simulation.
	Seed int64
	// Duration is the simulated seconds every array runs (default 300).
	Duration float64

	// PowerCap, when positive, is the maximum number of arrays licensed
	// to run disks above the low speed tier. The router's admission plan
	// grants licenses to the most loaded arrays first; the rest have
	// their disk spec truncated to the lowest RPM level for the whole
	// run (diskmodel.Spec.Truncate). 0 leaves the fleet uncapped.
	PowerCap int

	// FaultAccel compresses drive lifetime onto the simulated horizon so
	// vintage AFR differences are visible in minutes-long runs: one
	// simulated second ages a drive FaultAccel seconds for fault
	// sampling. Default 2000 (a 300 s run covers ~1 week of exposure).
	FaultAccel float64

	// Par is the runner pool width for fan-out across arrays
	// (0 = GOMAXPROCS, 1 = sequential). Report bytes never depend on it.
	Par int
	// Check arms an invariant checker on every array's run; violations
	// land in the report (and fail Report.Ok).
	Check bool
	// MetricsDir, when non-empty, writes one observability file pair per
	// array (array-%04d.metrics.jsonl / .trace.jsonl) into the directory,
	// which must exist.
	MetricsDir string
	// Context, when non-nil, cancels the fleet between array runs.
	Context context.Context
	// Log, when non-nil, receives progress lines (wall-clock ordered, NOT
	// deterministic — keep it off the report stream).
	Log io.Writer
}

func (c *Config) applyDefaults() error {
	if c.Arrays <= 0 {
		return fmt.Errorf("fleet: need a positive array count, got %d", c.Arrays)
	}
	if c.Tenants < 0 {
		return fmt.Errorf("fleet: negative tenant count %d", c.Tenants)
	}
	if c.Tenants == 0 {
		c.Tenants = 4 * c.Arrays
	}
	if c.Duration == 0 {
		c.Duration = 300
	}
	if !(c.Duration > 0) || math.IsInf(c.Duration, 0) {
		return fmt.Errorf("fleet: duration must be positive and finite, got %g", c.Duration)
	}
	if c.PowerCap < 0 {
		return fmt.Errorf("fleet: negative power cap %d", c.PowerCap)
	}
	if c.FaultAccel == 0 {
		c.FaultAccel = 2000
	}
	if !(c.FaultAccel > 0) || math.IsInf(c.FaultAccel, 0) {
		return fmt.Errorf("fleet: fault acceleration must be positive and finite, got %g", c.FaultAccel)
	}
	return nil
}

// arrayOutcome is one array's contribution to the roll-up.
type arrayOutcome struct {
	spec    ArraySpec
	res     *sim.Result
	tenants []*TenantStats
	viols   []string
}

// Run executes the fleet and returns its report. The error return is
// infrastructural (bad config, metrics I/O, cancellation); per-array
// invariant violations and conservation failures live in the report.
func Run(cfg Config) (*Report, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	arrays := make([]ArraySpec, cfg.Arrays)
	for i := range arrays {
		arrays[i] = SampleArray(cfg.Seed, i)
	}
	tenants := make([]Tenant, cfg.Tenants)
	for t := range tenants {
		tenants[t] = SampleTenant(cfg.Seed, t)
	}
	plan := BuildPlan(cfg.Seed, cfg.PowerCap, arrays, tenants)
	for i := range arrays {
		arrays[i].Capped = !plan.Licensed[i]
	}

	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	outcomes, err := runner.Map(ctx, cfg.Par, cfg.Arrays,
		func(_ context.Context, i int) (arrayOutcome, error) {
			out, err := runArray(&cfg, arrays[i], plan.ArrayTenants(i, tenants))
			if err != nil {
				return arrayOutcome{}, fmt.Errorf("fleet: array %d: %w", i, err)
			}
			if cfg.Log != nil {
				fmt.Fprintf(cfg.Log, "fleet: array %d/%d done\n", i+1, cfg.Arrays)
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	return buildReport(&cfg, plan, outcomes), nil
}

// runArray executes one array's simulation with the fleet hooks armed.
func runArray(cfg *Config, spec ArraySpec, assigned []Tenant) (arrayOutcome, error) {
	simCfg, err := spec.simConfig(cfg)
	if err != nil {
		return arrayOutcome{}, err
	}
	var chk *invariant.Checker
	if cfg.Check {
		chk = invariant.New()
		simCfg.Invariants = chk
	}
	flush := func() error { return nil }
	if cfg.MetricsDir != "" {
		simCfg.Metrics = obs.NewRegistry(0)
		simCfg.Trace = obs.NewTrace()
		base := filepath.Join(cfg.MetricsDir, fmt.Sprintf("array-%04d", spec.Index))
		flush = func() error {
			if err := simCfg.Metrics.WriteFile(base + ".metrics.jsonl"); err != nil {
				return err
			}
			return simCfg.Trace.WriteFile(base + ".trace.jsonl")
		}
	}

	// Per-tenant latency attribution: every foreground completion carries
	// the tenant tag its source stamped on the request.
	byTenant := make(map[int]*TenantStats, len(assigned))
	out := arrayOutcome{spec: spec, tenants: make([]*TenantStats, len(assigned))}
	for j, t := range assigned {
		ts := &TenantStats{
			ID: t.ID, Array: spec.Index, Workload: t.Workload, Rate: t.Rate,
			pct: stats.NewReservoir(4096, mix3(cfg.Seed, int64(t.ID), 0x7e9a)),
		}
		byTenant[t.ID] = ts
		out.tenants[j] = ts
	}
	simCfg.OnResponse = func(r trace.Request, lat float64) {
		if ts := byTenant[r.Tenant]; ts != nil {
			ts.Requests++
			ts.w.Add(lat)
			ts.pct.Add(lat)
		}
	}

	src, err := buildWorkload(cfg, spec, assigned, simCfg)
	if err != nil {
		return arrayOutcome{}, err
	}
	ctrl, err := spec.controller(cfg.Duration)
	if err != nil {
		return arrayOutcome{}, err
	}
	res, err := sim.Run(simCfg, src, ctrl, cfg.Duration)
	if err != nil {
		return arrayOutcome{}, err
	}
	if err := flush(); err != nil {
		return arrayOutcome{}, err
	}
	out.res = res
	if chk != nil {
		chk.Finish(cfg.Duration)
		for _, v := range chk.Violations() {
			out.viols = append(out.viols, v.String())
		}
	}
	return out, nil
}

// TenantStats aggregates one tenant's observed service.
type TenantStats struct {
	ID       int
	Array    int     // array the router assigned
	Workload string  // oltp | cello
	Rate     float64 // offered req/s

	Requests uint64
	w        stats.Welford
	pct      *stats.Reservoir
}

// MeanResp returns the tenant's mean response time in seconds (0 with no
// completed requests).
func (t *TenantStats) MeanResp() float64 {
	if t.Requests == 0 {
		return 0
	}
	return t.w.Mean()
}

// P95 returns the tenant's 95th percentile response time in seconds.
func (t *TenantStats) P95() float64 { return t.pct.Quantile(0.95) }

// P99 returns the tenant's 99th percentile response time in seconds.
func (t *TenantStats) P99() float64 { return t.pct.Quantile(0.99) }

// sortTenants orders tenant stats by ID (the deterministic report order).
func sortTenants(ts []*TenantStats) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].ID < ts[j].ID })
}
