package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// ParseSpec parses a compact comma-separated chaos spec into a Scenario.
// Clause grammar (durations use Go syntax: 10s, 500ms, 2m):
//
//	outage:<pool>:<from>-<to>             outage window on a pool
//	degrade:<pool>:<factor>x:<from>-<to>  latency multiplier window
//	flaky:<pool>:<prob>[:<from>-<to>][:burst=<n>]
//	crash:<node>:<at>                     node crash at virtual time
//	flap:<pool>:<period>/<down>:x<count>[:<from>]
//
// Example:
//
//	outage:cxl:10s-20s,flaky:rdma:0.2:burst=3,crash:n1:30s
func ParseSpec(spec string) (Scenario, error) {
	var sc Scenario
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		parts := strings.Split(clause, ":")
		if len(parts) < 2 {
			return Scenario{}, fmt.Errorf("fault: bad clause %q", clause)
		}
		kind, rest := parts[0], parts[1:]
		var err error
		switch kind {
		case "outage":
			err = parseOutage(rest, &sc)
		case "degrade":
			err = parseDegrade(rest, &sc)
		case "flaky":
			err = parseFlaky(rest, &sc)
		case "crash":
			err = parseCrash(rest, &sc)
		case "flap":
			err = parseFlap(rest, &sc)
		default:
			err = fmt.Errorf("unknown fault kind %q", kind)
		}
		if err != nil {
			return Scenario{}, fmt.Errorf("fault: clause %q: %w", clause, err)
		}
	}
	return sc, nil
}

// Validate checks a scenario against the rules ParseSpec applies to
// each clause, so a structured scenario (trenvd's POST /chaos body) is
// held to the same ones: every window is non-empty (a flaky window may
// be left out), a degrade factor is finite and above 1, a flaky
// probability is in (0, 1], a burst is at least 1 when set, crash
// times and flap offsets are not negative, a flap's down time is in
// (0, period] and its count is at least 1.
func (s Scenario) Validate() error {
	for _, err := range []error{
		validateAll("pool_outages", s.PoolOutages),
		validateAll("pool_degrades", s.PoolDegrades),
		validateAll("flaky_fetches", s.FlakyFetches),
		validateAll("node_crashes", s.NodeCrashes),
		validateAll("link_flaps", s.LinkFlaps),
	} {
		if err != nil {
			return err
		}
	}
	return nil
}

func validateAll[T interface{ validate() error }](field string, clauses []T) error {
	for i, c := range clauses {
		if err := c.validate(); err != nil {
			return fmt.Errorf("fault: %s[%d]: %w", field, i, err)
		}
	}
	return nil
}

func checkWindow(from, to time.Duration) error {
	if to <= from {
		return fmt.Errorf("empty window %v-%v", from, to)
	}
	return nil
}

func (o PoolOutage) validate() error { return checkWindow(o.From, o.To) }

func (d PoolDegrade) validate() error {
	if !(d.Factor > 1) || math.IsInf(d.Factor, 0) { // written to reject NaN
		return fmt.Errorf("bad factor %v (want finite > 1)", d.Factor)
	}
	return checkWindow(d.From, d.To)
}

func (f FlakyFetch) validate() error {
	if !(f.Prob > 0 && f.Prob <= 1) { // written to reject NaN
		return fmt.Errorf("bad probability %v (want (0,1])", f.Prob)
	}
	if f.Burst < 0 {
		return fmt.Errorf("bad burst %d (want >= 1 when set)", f.Burst)
	}
	if f.From == 0 && f.To == 0 {
		return nil // no window: the whole run
	}
	return checkWindow(f.From, f.To)
}

func (c NodeCrash) validate() error {
	if c.At < 0 {
		return fmt.Errorf("negative crash time %v", c.At)
	}
	return nil
}

func (f LinkFlap) validate() error {
	switch {
	case f.Down <= 0 || f.Down > f.Period:
		return fmt.Errorf("down %v must be in (0, period %v]", f.Down, f.Period)
	case f.Count < 1:
		return fmt.Errorf("bad count %d (want >= 1)", f.Count)
	case f.From < 0:
		return fmt.Errorf("negative flap offset %v", f.From)
	}
	return nil
}

// parseWindow reads a written <from>-<to> window, which must not be
// empty even where the clause could leave it out.
func parseWindow(s string) (from, to time.Duration, err error) {
	lo, hi, ok := strings.Cut(s, "-")
	if !ok {
		return 0, 0, fmt.Errorf("bad window %q (want from-to)", s)
	}
	if from, err = time.ParseDuration(lo); err != nil {
		return 0, 0, err
	}
	if to, err = time.ParseDuration(hi); err != nil {
		return 0, 0, err
	}
	return from, to, checkWindow(from, to)
}

func parseOutage(p []string, sc *Scenario) error {
	if len(p) != 2 {
		return fmt.Errorf("want outage:<pool>:<from>-<to>")
	}
	o := PoolOutage{Pool: p[0]}
	var err error
	if o.From, o.To, err = parseWindow(p[1]); err != nil {
		return err
	}
	sc.PoolOutages = append(sc.PoolOutages, o)
	return nil
}

func parseDegrade(p []string, sc *Scenario) error {
	if len(p) != 3 || !strings.HasSuffix(p[1], "x") {
		return fmt.Errorf("want degrade:<pool>:<factor>x:<from>-<to>")
	}
	d := PoolDegrade{Pool: p[0]}
	var err error
	if d.Factor, err = strconv.ParseFloat(strings.TrimSuffix(p[1], "x"), 64); err != nil {
		return fmt.Errorf("bad factor %q (want finite > 1)", p[1])
	}
	if d.From, d.To, err = parseWindow(p[2]); err != nil {
		return err
	}
	if err := d.validate(); err != nil {
		return err
	}
	sc.PoolDegrades = append(sc.PoolDegrades, d)
	return nil
}

func parseFlaky(p []string, sc *Scenario) error {
	if len(p) < 2 {
		return fmt.Errorf("want flaky:<pool>:<prob>[:<from>-<to>][:burst=<n>]")
	}
	f := FlakyFetch{Pool: p[0]}
	var err error
	if f.Prob, err = strconv.ParseFloat(p[1], 64); err != nil {
		return fmt.Errorf("bad probability %q (want (0,1])", p[1])
	}
	for _, opt := range p[2:] {
		switch {
		case strings.HasPrefix(opt, "burst="):
			// A written burst is set, so 0 is as bad as a negative one.
			n, err := strconv.Atoi(strings.TrimPrefix(opt, "burst="))
			if err != nil || n < 1 {
				return fmt.Errorf("bad burst %q", opt)
			}
			f.Burst = n
		case strings.Contains(opt, "-"):
			if f.From, f.To, err = parseWindow(opt); err != nil {
				return err
			}
		default:
			return fmt.Errorf("bad option %q", opt)
		}
	}
	if err := f.validate(); err != nil {
		return err
	}
	sc.FlakyFetches = append(sc.FlakyFetches, f)
	return nil
}

func parseCrash(p []string, sc *Scenario) error {
	if len(p) != 2 {
		return fmt.Errorf("want crash:<node>:<at>")
	}
	c := NodeCrash{Node: p[0]}
	var err error
	if c.At, err = time.ParseDuration(p[1]); err != nil {
		return err
	}
	if err := c.validate(); err != nil {
		return err
	}
	sc.NodeCrashes = append(sc.NodeCrashes, c)
	return nil
}

func parseFlap(p []string, sc *Scenario) error {
	if len(p) < 3 || len(p) > 4 {
		return fmt.Errorf("want flap:<pool>:<period>/<down>:x<count>[:<from>]")
	}
	per, down, ok := strings.Cut(p[1], "/")
	if !ok {
		return fmt.Errorf("bad period/down %q", p[1])
	}
	f := LinkFlap{Pool: p[0]}
	var err error
	if f.Period, err = time.ParseDuration(per); err != nil {
		return err
	}
	if f.Down, err = time.ParseDuration(down); err != nil {
		return err
	}
	if !strings.HasPrefix(p[2], "x") {
		return fmt.Errorf("bad count %q (want x<count>)", p[2])
	}
	if f.Count, err = strconv.Atoi(strings.TrimPrefix(p[2], "x")); err != nil {
		return fmt.Errorf("bad count %q", p[2])
	}
	if len(p) == 4 {
		if f.From, err = time.ParseDuration(p[3]); err != nil {
			return err
		}
	}
	if err := f.validate(); err != nil {
		return err
	}
	sc.LinkFlaps = append(sc.LinkFlaps, f)
	return nil
}
