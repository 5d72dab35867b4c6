package scenario

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"hibernator/internal/atomicio"
	"hibernator/internal/fault"
)

// Repro files are self-contained scenario descriptions: one "key value"
// pair per line, fault events in the fault-CSV syntax behind a "fault "
// prefix, '#' comments and blank lines ignored. WriteRepro always emits
// every field in a fixed order, so files are canonical and diffable;
// ParseRepro accepts any order, applies no hidden defaults beyond the
// zero value, and validates the result, so a hand-edited file either
// replays exactly or fails with the offending line number.

// reproHeader is the required first non-blank line of a repro file.
const reproHeader = "# hibchaos repro v1"

// WriteRepro serializes the scenario.
func WriteRepro(w io.Writer, s *Scenario) error {
	bw := bufio.NewWriter(w)
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	fmt.Fprintln(bw, reproHeader)
	fmt.Fprintf(bw, "# %s\n", s.String())
	fmt.Fprintf(bw, "seed %d\n", s.Seed)
	fmt.Fprintf(bw, "duration %s\n", g(s.Duration))
	fmt.Fprintf(bw, "scheme %s\n", s.Scheme)
	fmt.Fprintf(bw, "family %s\n", s.Family)
	fmt.Fprintf(bw, "levels %d\n", s.Levels)
	fmt.Fprintf(bw, "groups %d\n", s.Groups)
	fmt.Fprintf(bw, "group-disks %d\n", s.GroupDisks)
	fmt.Fprintf(bw, "raid %s\n", s.RAID)
	fmt.Fprintf(bw, "spare-disks %d\n", s.SpareDisks)
	fmt.Fprintf(bw, "cache-mb %d\n", s.CacheMB)
	fmt.Fprintf(bw, "goal-ms %s\n", g(s.RespGoalMs))
	fmt.Fprintf(bw, "epoch-frac %s\n", g(s.EpochFrac))
	fmt.Fprintf(bw, "snapshot-t %s\n", g(s.SnapshotT))
	fmt.Fprintf(bw, "workload %s\n", s.Workload)
	fmt.Fprintf(bw, "rate %s\n", g(s.Rate))
	fmt.Fprintf(bw, "retry.max-retries %d\n", s.Retry.MaxRetries)
	fmt.Fprintf(bw, "retry.backoff %s\n", g(s.Retry.Backoff))
	fmt.Fprintf(bw, "retry.backoff-factor %s\n", g(s.Retry.BackoffFactor))
	fmt.Fprintf(bw, "retry.op-deadline %s\n", g(s.Retry.OpDeadline))
	fmt.Fprintf(bw, "retry.suspect-after %d\n", s.Retry.SuspectAfter)
	fmt.Fprintf(bw, "retry.evict-after %d\n", s.Retry.EvictAfter)
	fmt.Fprintf(bw, "retry.auto-rebuild %t\n", s.Retry.AutoRebuild)
	fmt.Fprintf(bw, "ambient.transient %s\n", g(s.Rates.TransientProb))
	fmt.Fprintf(bw, "ambient.spinfail %s %d\n", g(s.Rates.SpinUpFailProb), s.Rates.SpinUpRetries)
	for _, ev := range s.Events {
		fmt.Fprintf(bw, "fault %s\n", ev.Format())
	}
	if s.BugEnergySkew != 0 {
		fmt.Fprintf(bw, "bug.energy-skew %s %s %d\n", g(s.BugEnergySkew), g(s.BugSkewAt), s.BugSkewDisk)
	}
	return bw.Flush()
}

// SaveRepro writes the scenario to a file atomically: a soak killed
// mid-write never leaves a truncated repro that replays a different
// scenario.
func SaveRepro(path string, s *Scenario) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		return WriteRepro(w, s)
	})
}

// LoadRepro reads and validates a repro file.
func LoadRepro(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := ParseRepro(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// ParseRepro reads a repro stream. Errors carry the 1-based line number.
func ParseRepro(r io.Reader) (*Scenario, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), maxReproLine)
	s := &Scenario{}
	lineNo := 0
	sawHeader := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if !sawHeader {
			if line != reproHeader {
				return nil, fmt.Errorf("line %d: not a hibchaos repro (want %q first)", lineNo, reproHeader)
			}
			sawHeader = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		key, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		if err := s.setField(key, rest); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		if err == bufio.ErrTooLong {
			return nil, fmt.Errorf("line %d: line exceeds %d bytes", lineNo+1, maxReproLine)
		}
		return nil, err
	}
	if !sawHeader {
		return nil, fmt.Errorf("empty repro (want %q first)", reproHeader)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// maxReproLine bounds one repro line (same rationale as the fault CSV).
const maxReproLine = 64 << 10

// setField applies one "key value" pair.
func (s *Scenario) setField(key, val string) error {
	pInt := func(dst *int) error {
		v, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("%s: bad integer %q", key, val)
		}
		*dst = v
		return nil
	}
	pInt64 := func(dst *int64) error {
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return fmt.Errorf("%s: bad integer %q", key, val)
		}
		*dst = v
		return nil
	}
	pFloat := func(dst *float64) error {
		v, err := strconv.ParseFloat(val, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: bad number %q", key, val)
		}
		*dst = v
		return nil
	}
	pString := func(dst *string) error {
		if val == "" || strings.ContainsAny(val, " \t") {
			return fmt.Errorf("%s: bad value %q", key, val)
		}
		*dst = val
		return nil
	}
	switch key {
	case "seed":
		return pInt64(&s.Seed)
	case "duration":
		return pFloat(&s.Duration)
	case "scheme":
		return pString(&s.Scheme)
	case "family":
		return pString(&s.Family)
	case "levels":
		return pInt(&s.Levels)
	case "groups":
		return pInt(&s.Groups)
	case "group-disks":
		return pInt(&s.GroupDisks)
	case "raid":
		return pString(&s.RAID)
	case "spare-disks":
		return pInt(&s.SpareDisks)
	case "cache-mb":
		return pInt64(&s.CacheMB)
	case "goal-ms":
		return pFloat(&s.RespGoalMs)
	case "epoch-frac":
		return pFloat(&s.EpochFrac)
	case "workers":
		// An engine width older repros and stored artifacts still carry;
		// every run is sequential now, so it is checked and ignored.
		var ignored int
		return pInt(&ignored)
	case "snapshot-t":
		return pFloat(&s.SnapshotT)
	case "workload":
		return pString(&s.Workload)
	case "rate":
		return pFloat(&s.Rate)
	case "retry.max-retries":
		return pInt(&s.Retry.MaxRetries)
	case "retry.backoff":
		return pFloat(&s.Retry.Backoff)
	case "retry.backoff-factor":
		return pFloat(&s.Retry.BackoffFactor)
	case "retry.op-deadline":
		return pFloat(&s.Retry.OpDeadline)
	case "retry.suspect-after":
		return pInt(&s.Retry.SuspectAfter)
	case "retry.evict-after":
		return pInt(&s.Retry.EvictAfter)
	case "retry.auto-rebuild":
		switch val {
		case "true":
			s.Retry.AutoRebuild = true
		case "false":
			s.Retry.AutoRebuild = false
		default:
			return fmt.Errorf("%s: want true or false, got %q", key, val)
		}
		return nil
	case "ambient.transient":
		return pFloat(&s.Rates.TransientProb)
	case "ambient.spinfail":
		prob, retries, ok := strings.Cut(val, " ")
		if !ok {
			return fmt.Errorf("%s: want \"prob retries\", got %q", key, val)
		}
		p, err := strconv.ParseFloat(prob, 64)
		if err != nil || math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("%s: bad probability %q", key, prob)
		}
		n, err := strconv.Atoi(strings.TrimSpace(retries))
		if err != nil {
			return fmt.Errorf("%s: bad retries %q", key, retries)
		}
		s.Rates.SpinUpFailProb, s.Rates.SpinUpRetries = p, n
		return nil
	case "fault":
		ev, err := fault.ParseEvent(val)
		if err != nil {
			return fmt.Errorf("fault: %w", err)
		}
		s.Events = append(s.Events, ev)
		return nil
	case "bug.energy-skew":
		parts := strings.Fields(val)
		if len(parts) != 3 {
			return fmt.Errorf("%s: want \"joules time disk\", got %q", key, val)
		}
		j, err1 := strconv.ParseFloat(parts[0], 64)
		t, err2 := strconv.ParseFloat(parts[1], 64)
		d, err3 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return fmt.Errorf("%s: bad value %q", key, val)
		}
		s.BugEnergySkew, s.BugSkewAt, s.BugSkewDisk = j, t, d
		return nil
	}
	return fmt.Errorf("unknown key %q", key)
}
