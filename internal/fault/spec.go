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
	if to <= from {
		return 0, 0, fmt.Errorf("empty window %q", s)
	}
	return from, to, nil
}

func parseOutage(p []string, sc *Scenario) error {
	if len(p) != 2 {
		return fmt.Errorf("want outage:<pool>:<from>-<to>")
	}
	from, to, err := parseWindow(p[1])
	if err != nil {
		return err
	}
	sc.PoolOutages = append(sc.PoolOutages, PoolOutage{Pool: p[0], From: from, To: to})
	return nil
}

func parseDegrade(p []string, sc *Scenario) error {
	if len(p) != 3 || !strings.HasSuffix(p[1], "x") {
		return fmt.Errorf("want degrade:<pool>:<factor>x:<from>-<to>")
	}
	factor, err := strconv.ParseFloat(strings.TrimSuffix(p[1], "x"), 64)
	if err != nil || !(factor > 1) || math.IsInf(factor, 0) { // written to reject NaN
		return fmt.Errorf("bad factor %q (want finite > 1)", p[1])
	}
	from, to, err := parseWindow(p[2])
	if err != nil {
		return err
	}
	sc.PoolDegrades = append(sc.PoolDegrades, PoolDegrade{Pool: p[0], From: from, To: to, Factor: factor})
	return nil
}

func parseFlaky(p []string, sc *Scenario) error {
	if len(p) < 2 {
		return fmt.Errorf("want flaky:<pool>:<prob>[:<from>-<to>][:burst=<n>]")
	}
	prob, err := strconv.ParseFloat(p[1], 64)
	if err != nil || !(prob > 0 && prob <= 1) { // written to reject NaN
		return fmt.Errorf("bad probability %q (want (0,1])", p[1])
	}
	f := FlakyFetch{Pool: p[0], Prob: prob}
	for _, opt := range p[2:] {
		switch {
		case strings.HasPrefix(opt, "burst="):
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
	sc.FlakyFetches = append(sc.FlakyFetches, f)
	return nil
}

func parseCrash(p []string, sc *Scenario) error {
	if len(p) != 2 {
		return fmt.Errorf("want crash:<node>:<at>")
	}
	at, err := time.ParseDuration(p[1])
	if err != nil {
		return err
	}
	if at < 0 {
		return fmt.Errorf("negative crash time %v", at)
	}
	sc.NodeCrashes = append(sc.NodeCrashes, NodeCrash{Node: p[0], At: at})
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
	if f.Down <= 0 || f.Down > f.Period {
		return fmt.Errorf("down %v must be in (0, period %v]", f.Down, f.Period)
	}
	if !strings.HasPrefix(p[2], "x") {
		return fmt.Errorf("bad count %q (want x<count>)", p[2])
	}
	if f.Count, err = strconv.Atoi(strings.TrimPrefix(p[2], "x")); err != nil || f.Count < 1 {
		return fmt.Errorf("bad count %q", p[2])
	}
	if len(p) == 4 {
		if f.From, err = time.ParseDuration(p[3]); err != nil {
			return err
		}
		if f.From < 0 {
			return fmt.Errorf("negative flap offset %v", f.From)
		}
	}
	sc.LinkFlaps = append(sc.LinkFlaps, f)
	return nil
}
