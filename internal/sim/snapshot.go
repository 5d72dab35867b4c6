package sim

import (
	"fmt"
	"math"
	"strconv"

	"hibernator/internal/array"
	"hibernator/internal/cache"
	"hibernator/internal/diskmodel"
	"hibernator/internal/fault"
	"hibernator/internal/simevent"
	"hibernator/internal/snapshot"
	"hibernator/internal/stats"
)

// This file is the epoch-snapshot layer: deterministic full-state capture
// at simulated-time boundaries, and replay-based restore.
//
// Capture rule. A boundary b fires between events: the run loop captures
// exactly when every event with time <= b has executed and none after b
// has. Capture is a pure read — no events are scheduled, no accounting is
// closed, no RNG is drawn — so a run with snapshots enabled is
// byte-identical to one without, and the captured bytes are a pure
// function of the event-stream position.
//
// Restore rule. The simulator never serializes closures: pending events
// (tickers, in-flight I/O completions, staggered plan steps) are all
// re-derivable by construction from the deterministic prefix. "Restore"
// therefore replays the run from t=0 — with metrics/trace rows before the
// snapshot epoch suppressed so exported streams contain only the tail —
// and at the snapshot time captures again and compares entry by entry
// against the file. Any divergence aborts the run naming the first
// mismatched key; agreement proves the resumed tail is the tail of the
// uninterrupted run, byte for byte.

// StateSnapshotter is implemented by controllers that contribute their
// internal state to epoch snapshots. put is called once per key (keys are
// namespaced under "state.policy." by the harness); values must be
// newline-free and non-empty. Implementations must be pure reads.
type StateSnapshotter interface {
	SnapshotState(put func(key, value string))
}

// snapCtl owns a run's snapshot boundaries: the periodic k*every capture
// points feeding Config.SnapshotSink, and (on a resumed run) the one-shot
// verification boundary at the snapshot's epoch.
type snapCtl struct {
	every    float64 // 0 = no periodic boundaries
	k        int     // index of the next periodic boundary (k*every)
	verifyAt float64 // resume verification epoch; <0 when absent or consumed
	verify   *snapshot.State
	duration float64
	capture  func(b float64) *snapshot.State
	sink     func(*snapshot.State) error
}

// peek returns the earliest unfired boundary at or below the run's
// duration, if any.
func (s *snapCtl) peek() (float64, bool) {
	b := math.Inf(1)
	if s.verifyAt >= 0 {
		b = s.verifyAt
	}
	if s.every > 0 {
		if p := float64(s.k) * s.every; p < b {
			b = p
		}
	}
	if b > s.duration {
		return 0, false
	}
	return b, true
}

// fire captures the state at boundary b and routes it: a verification
// boundary diffs against the resume snapshot, a periodic boundary goes to
// the sink. A boundary can be both.
func (s *snapCtl) fire(b float64) error {
	st := s.capture(b)
	if s.verifyAt >= 0 && b == s.verifyAt {
		s.verifyAt = -1
		want := s.verify.Section("state.")
		if diff := snapshot.Diff(want, st.Section("state.")); diff != "" {
			return fmt.Errorf("sim: resume verification failed at t=%v: %s", b, diff)
		}
	}
	if s.every > 0 && b == float64(s.k)*s.every {
		s.k++
		if s.sink != nil {
			if err := s.sink(st); err != nil {
				return fmt.Errorf("sim: snapshot sink at t=%v: %w", b, err)
			}
		}
	}
	return nil
}

// snapRefs bundles everything capture reads. All fields are the run's
// live objects; capture never mutates them.
type snapRefs struct {
	cfg      *Config
	scheme   string
	duration float64
	engine   *simevent.Engine
	arr      *array.Array
	cache    *cache.Cache
	env      *Env
	respW    *stats.Welford
	respPct  *stats.Reservoir
	res      *Result
	windows  *int
	viols    *int
	ctrl     Controller
}

// capture serializes the full deterministic state at boundary time b.
func (r *snapRefs) capture(b float64) *snapshot.State {
	st := snapshot.New()
	st.SetFloat("t", b)
	r.putConfig(st.Set)
	r.putState(b, st.Set)
	return st
}

// putConfig emits the run-identity section. Two runs may only resume one
// another when every one of these keys matches; Context, Invariants, and
// the snapshot knobs themselves are deliberately absent — they never
// change the deterministic output.
func (r *snapRefs) putConfig(put func(k, v string)) {
	c := r.cfg
	put("config.scheme", r.scheme)
	put("config.duration", ff(r.duration))
	put("config.spec", c.Spec.Name)
	put("config.groups", itoa(c.Groups))
	put("config.groupdisks", itoa(c.GroupDisks))
	put("config.level", c.Level.String())
	put("config.stripeunit", i64(c.StripeUnit))
	put("config.extentbytes", i64(c.ExtentBytes))
	put("config.occupancy", ff(c.Occupancy))
	put("config.sparedisks", itoa(c.SpareDisks))
	put("config.cachebytes", i64(c.CacheBytes))
	put("config.cacheblock", i64(c.CacheBlock))
	put("config.destageperiod", ff(c.DestagePeriod))
	put("config.destagemax", itoa(c.DestageMax))
	put("config.respgoal", ff(c.RespGoal))
	put("config.respwindow", ff(c.RespWindow))
	put("config.sampleevery", ff(c.SampleEvery))
	put("config.warmup", ff(c.Warmup))
	put("config.seed", i64(c.Seed))
	put("config.initiallevel", itoa(c.InitialLevel))
	put("config.expectedrot", b01(c.ExpectedRotLatency))
	put("config.scheduler", itoa(int(c.Scheduler)))
	put("config.retry.maxretries", itoa(c.Retry.MaxRetries))
	put("config.retry.backoff", ff(c.Retry.Backoff))
	put("config.retry.backofffactor", ff(c.Retry.BackoffFactor))
	put("config.retry.opdeadline", ff(c.Retry.OpDeadline))
	put("config.retry.suspectafter", itoa(c.Retry.SuspectAfter))
	put("config.retry.evictafter", itoa(c.Retry.EvictAfter))
	put("config.retry.autorebuild", b01(c.Retry.AutoRebuild))
	put("config.faults", faultDigest(c.Faults))
	put("config.metrics", b01(c.Metrics != nil))
	put("config.obssampleevery", ff(c.ObsSampleEvery))
}

// putState emits the state digest at boundary time b: engine position,
// harness accumulators, array/group/disk state including energy integrals
// and RNG stream positions, cache, and the controller's contribution.
func (r *snapRefs) putState(b float64, put func(k, v string)) {
	put("state.events.processed", u64(r.engine.Processed()))
	put("state.events.pending", itoa(r.engine.Pending()))
	put("state.requests", u64(r.res.Requests))
	put("state.cachehits", u64(r.res.CacheHits))
	put("state.series", itoa(len(r.res.Series)))
	put("state.goalwindows", itoa(*r.windows))
	put("state.goalviolations", itoa(*r.viols))
	put("state.resp.n", u64(r.respW.Count()))
	put("state.resp.fp", u64(r.respW.Fingerprint()))
	put("state.resppct.fp", u64(r.respPct.Fingerprint()))
	put("state.respcum.n", u64(r.env.RespCum.Count()))
	put("state.respcum.mean", ff(r.env.RespCum.Mean()))

	put("state.array.energy", ff(r.arr.EnergyAt(b)))
	put("state.array.layout.fp", u64(r.arr.LayoutFingerprint()))
	mc, mb := r.arr.Migrations()
	put("state.array.migrations", u64(mc))
	put("state.array.migratedbytes", u64(mb))
	fs := r.arr.FaultStats()
	put("state.array.operrors", u64(fs.OpErrors))
	put("state.array.retries", u64(fs.Retries))
	put("state.array.timeouts", u64(fs.Timeouts))
	put("state.array.fallbacks", u64(fs.Fallbacks))
	put("state.array.evictions", u64(fs.Evictions))
	put("state.array.diskfailures", u64(r.arr.DiskFailures()))
	put("state.array.rebuilds", u64(r.arr.Rebuilds()))
	put("state.array.lostios", u64(r.arr.LostIOs()))
	ist := r.cfg.Faults.Stats()
	put("state.faults.injected", itoa(ist.Injected))
	put("state.faults.skipped", itoa(ist.Skipped))

	if r.cache != nil {
		put("state.cache.fp", u64(r.cache.Fingerprint()))
		put("state.cache.len", itoa(r.cache.Len()))
		put("state.cache.dirtylen", itoa(r.cache.DirtyLen()))
		hits, misses, destages := r.cache.Stats()
		put("state.cache.hits", u64(hits))
		put("state.cache.misses", u64(misses))
		put("state.cache.destages", u64(destages))
		rl, wl := r.cache.Lookups()
		put("state.cache.readlookups", u64(rl))
		put("state.cache.writelookups", u64(wl))
		wh, wa := r.cache.WriteStats()
		put("state.cache.writehits", u64(wh))
		put("state.cache.writeallocs", u64(wa))
	}

	for gi, g := range r.arr.Groups() {
		p := "state.group" + itoa(gi)
		put(p+".level", itoa(g.Level()))
		put(p+".target", itoa(g.TargetLevel()))
		put(p+".rebuilding", b01(g.Rebuilding()))
		put(p+".suspect", itoa(len(g.SuspectDisks())))
		_, used := g.Slots()
		put(p+".used", itoa(used))
	}

	for di, d := range r.arr.Disks() {
		p := "state.disk" + itoa(di)
		put(p+".state", itoa(int(d.State())))
		put(p+".level", itoa(d.Level()))
		put(p+".target", itoa(d.TargetLevel()))
		put(p+".queue", itoa(d.QueueLen()))
		put(p+".fgqueue", itoa(d.ForegroundQueueLen()))
		put(p+".completed", u64(d.Completed()))
		put(p+".bgcompleted", u64(d.BackgroundCompleted()))
		put(p+".spinups", u64(d.SpinUps()))
		put(p+".spindowns", u64(d.SpinDowns()))
		put(p+".levelshifts", u64(d.LevelShifts()))
		put(p+".busytime", ff(d.BusyTime()))
		br, bw := d.BytesMoved()
		put(p+".bytesread", u64(br))
		put(p+".byteswritten", u64(bw))
		put(p+".seqfg", u64(d.SequentialForeground()))
		put(p+".maxdepth", itoa(d.MaxQueueDepth()))
		put(p+".rotdraws", u64(d.RotLatencyDraws()))
		put(p+".faultdraws", u64(d.FaultRNGDraws()))
		put(p+".transient", u64(d.TransientErrors()))
		put(p+".latent", u64(d.LatentErrors()))
		put(p+".spinupfail", u64(d.SpinUpFailures()))
		put(p+".latent.fp", u64(latentFP(d.LatentRanges())))
		put(p+".acctstate", d.Account().State())
		put(p+".power", ff(d.Account().Power()))
		put(p+".energy", ff(d.Account().EnergyAt(b)))
		put(p+".svc.fp", u64(d.ServiceMoments().Fingerprint()))
		put(p+".size.fp", u64(d.SizeMoments().Fingerprint()))
		put(p+".resp.fp", u64(d.ResponseMoments().Fingerprint()))
		put(p+".pos.fp", u64(d.PositionMoments().Fingerprint()))
	}

	if ss, ok := r.ctrl.(StateSnapshotter); ok {
		ss.SnapshotState(func(k, v string) { put("state.policy."+k, v) })
	}
}

// verifyResumeConfig checks the snapshot's run-identity section against
// the current configuration before the replay starts, so a wrong pairing
// fails immediately instead of after minutes of replay.
func (r *snapRefs) verifyResumeConfig(snap *snapshot.State) error {
	cur := snapshot.New()
	r.putConfig(cur.Set)
	if diff := snapshot.Diff(snap.Section("config."), cur.Section("config.")); diff != "" {
		return fmt.Errorf("sim: resume snapshot does not match this run's configuration: %s", diff)
	}
	return nil
}

// faultDigest summarizes a fault schedule as count:fnv over every event's
// fields plus the ambient rates ("none" for an empty schedule).
func faultDigest(s *fault.Schedule) string {
	if s.Empty() {
		return "none"
	}
	h := fnvOffset
	for _, ev := range s.Events {
		h = fnvStr(h, fmt.Sprintf("%v|%d|%d|%v|%v|%v|%v|%d|%d|%d",
			ev.Time, ev.Disk, int(ev.Kind), ev.Prob, ev.Duration, ev.Factor, ev.Ramp, ev.Lo, ev.Hi, ev.Retries))
	}
	h = fnvStr(h, fmt.Sprintf("%v|%v|%d",
		s.Rates.TransientProb, s.Rates.SpinUpFailProb, s.Rates.SpinUpRetries))
	return fmt.Sprintf("%d:%016x", len(s.Events), h)
}

// latentFP hashes a disk's latent sector ranges in insertion order.
func latentFP(rs []diskmodel.LBARange) uint64 {
	h := fnvU(fnvOffset, uint64(len(rs)))
	for _, r := range rs {
		h = fnvU(h, uint64(r.Lo))
		h = fnvU(h, uint64(r.Hi))
	}
	return h
}

const (
	fnvOffset = uint64(14695981039346656037)
	fnvPrime  = uint64(1099511628211)
)

// fnvU folds one uint64 into an FNV-1a hash byte-wise.
func fnvU(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= fnvPrime
	}
	return h
}

// fnvStr folds a string into an FNV-1a hash.
func fnvStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// Formatting helpers shared by the capture path. ff uses the shortest
// round-trip float form, the same encoding snapshot.SetFloat uses.
func ff(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
func itoa(v int) string   { return strconv.Itoa(v) }
func i64(v int64) string  { return strconv.FormatInt(v, 10) }
func u64(v uint64) string { return strconv.FormatUint(v, 10) }
func b01(v bool) string {
	if v {
		return "1"
	}
	return "0"
}
