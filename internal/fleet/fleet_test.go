package fleet

import (
	"bytes"
	"math"
	"testing"
)

// testConfig is a small-but-heterogeneous fleet that runs in seconds.
func testConfig() Config {
	return Config{Arrays: 8, Tenants: 24, Seed: 1, Duration: 60}
}

// TestFleetDeterministicAcrossPar is the tentpole determinism contract:
// the same seed renders byte-identical reports at pool widths 1 and 8.
func TestFleetDeterministicAcrossPar(t *testing.T) {
	cfg := testConfig()
	cfg.Check = true

	cfg.Par = 1
	seq, err := Run(cfg)
	if err != nil {
		t.Fatalf("par=1 run failed: %v", err)
	}
	cfg.Par = 8
	par, err := Run(cfg)
	if err != nil {
		t.Fatalf("par=8 run failed: %v", err)
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatalf("report differs across par widths:\n--- par=1 ---\n%s--- par=8 ---\n%s",
			seq.Bytes(), par.Bytes())
	}
	if !seq.Ok() {
		t.Fatalf("checked fleet not clean:\n%s", seq.Bytes())
	}
}

// TestFleetConservation checks the fleet-scope invariant: the reported
// total is exactly the sum of per-array invariant-checked totals, and the
// independent state-ledger re-derivation agrees.
func TestFleetConservation(t *testing.T) {
	cfg := testConfig()
	cfg.Check = true
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("per-array invariants violated: %v", rep.Violations)
	}
	if len(rep.PerArrayEnergyJ) != cfg.Arrays {
		t.Fatalf("got %d per-array totals, want %d", len(rep.PerArrayEnergyJ), cfg.Arrays)
	}
	var sum float64
	for _, e := range rep.PerArrayEnergyJ {
		if !(e > 0) {
			t.Fatalf("non-positive per-array energy %g", e)
		}
		sum += e
	}
	if sum != rep.TotalEnergyJ {
		t.Fatalf("fleet total %g != sum of per-array totals %g (must be exact)", rep.TotalEnergyJ, sum)
	}
	if !rep.ConservationOK {
		t.Fatalf("ledger re-derivation disagrees: total %g, ledger %g",
			rep.TotalEnergyJ, rep.LedgerEnergyJ)
	}
	if math.Abs(rep.TotalEnergyJ-rep.LedgerEnergyJ) > 1e-6+1e-9*rep.TotalEnergyJ {
		t.Fatalf("ledger delta too large: %g", rep.TotalEnergyJ-rep.LedgerEnergyJ)
	}
}

// TestFleetPowerCapBites checks the cap changes physics, not just labels:
// a capped fleet reports capped arrays, and its energy differs from the
// uncapped fleet's (lowest-RPM-only arrays draw different power).
func TestFleetPowerCapBites(t *testing.T) {
	cfg := testConfig()
	free, err := Run(cfg)
	if err != nil {
		t.Fatalf("uncapped run failed: %v", err)
	}
	cfg.PowerCap = 2
	capped, err := Run(cfg)
	if err != nil {
		t.Fatalf("capped run failed: %v", err)
	}
	if free.CappedArrays != 0 {
		t.Fatalf("uncapped fleet reports %d capped arrays", free.CappedArrays)
	}
	if want := cfg.Arrays - cfg.PowerCap; capped.CappedArrays != want {
		t.Fatalf("capped fleet reports %d capped arrays, want %d", capped.CappedArrays, want)
	}
	if free.TotalEnergyJ == capped.TotalEnergyJ {
		t.Fatalf("power cap did not change fleet energy (%g J both ways)", free.TotalEnergyJ)
	}
	if bytes.Equal(free.Bytes(), capped.Bytes()) {
		t.Fatal("power cap did not change the report")
	}
}

// TestFleetTenantAttribution checks per-tenant latency attribution adds
// up: tenant request counts sum to the fleet total, and active tenants
// have sane latency stats.
func TestFleetTenantAttribution(t *testing.T) {
	cfg := testConfig()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if rep.Requests == 0 {
		t.Fatal("fleet served no requests")
	}
	if rep.ActiveTenants == 0 {
		t.Fatal("no tenant completed a request")
	}
	if !(rep.TenantP99Max >= rep.TenantP95Max && rep.TenantP95Max > 0) {
		t.Fatalf("percentiles disordered: P95max=%g P99max=%g", rep.TenantP95Max, rep.TenantP99Max)
	}
	if len(rep.WorstTenants) == 0 || len(rep.WorstTenants) > 5 {
		t.Fatalf("worst-tenant list has %d entries", len(rep.WorstTenants))
	}
	for _, ts := range rep.WorstTenants {
		if ts.Requests > 0 && !(ts.MeanResp() > 0) {
			t.Fatalf("tenant %d has %d requests but mean %g", ts.ID, ts.Requests, ts.MeanResp())
		}
	}
}

// TestFleetBadConfig checks config validation rejects nonsense.
func TestFleetBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{Arrays: 0},
		{Arrays: -3},
		{Arrays: 2, Tenants: -1},
		{Arrays: 2, Duration: -5},
		{Arrays: 2, PowerCap: -1},
		{Arrays: 2, FaultAccel: -10},
	} {
		if _, err := Run(cfg); err == nil {
			t.Fatalf("config %+v accepted; want error", cfg)
		}
	}
}
