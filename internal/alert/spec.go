package alert

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"
)

// ParseSpec parses a compact comma-separated rule spec, mirroring the
// chaos grammar in internal/fault. Clause grammar (durations use Go
// syntax: 10s, 500ms, 2m; label selectors are optional subset matches):
//
//	threshold:<name>:<series>[{k=v,...}]:<op><value>[:for=<dur>]
//	rate:<name>:<series>[{k=v,...}]:<op><value>[:over=<dur>][:for=<dur>]   windowed per-second rate
//	burn:<name>:<function|*>:<win>@<factor>x[|<win>@<factor>x...][:for=<dur>]
//	absence:<name>:<series>[{k=v,...}]:<window>[:for=<dur>]
//
// Operators are >, >=, <, <=. Commas inside {...} selectors do not
// split clauses. Example:
//
//	rate:errors:trenv_errors_total:>0.5:for=2s,burn:slo:*:1m@14x|5m@2x,absence:pulse:trenv_invocations_total:30s
func ParseSpec(spec string) ([]Rule, error) {
	var rules []Rule
	seen := make(map[string]bool)
	for _, clause := range splitOutside(spec, ',') {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		parts := splitOutside(clause, ':')
		if len(parts) < 3 {
			return nil, fmt.Errorf("alert: bad clause %q", clause)
		}
		kind, name := Kind(parts[0]), parts[1]
		if name == "" {
			return nil, fmt.Errorf("alert: clause %q: empty rule name", clause)
		}
		if seen[name] {
			return nil, fmt.Errorf("alert: clause %q: duplicate rule name %q", clause, name)
		}
		rest, forDur, err := popFor(parts[2:])
		if err != nil {
			return nil, fmt.Errorf("alert: clause %q: %w", clause, err)
		}
		r := Rule{Name: name, Kind: kind, For: forDur}
		switch kind {
		case KindThreshold, KindRate:
			err = parseBound(rest, &r)
		case KindBurn:
			err = parseBurn(rest, &r)
		case KindAbsence:
			err = parseAbsence(rest, &r)
		default:
			err = fmt.Errorf("unknown alert kind %q", parts[0])
		}
		if err != nil {
			return nil, fmt.Errorf("alert: clause %q: %w", clause, err)
		}
		seen[name] = true
		rules = append(rules, r)
	}
	return rules, nil
}

// Load resolves a -rules argument: "@path" reads a rule file (one or
// more clauses per line, blank lines and #-comments ignored), anything
// else parses directly as a spec string.
func Load(arg string) ([]Rule, error) {
	if !strings.HasPrefix(arg, "@") {
		return ParseSpec(arg)
	}
	path := strings.TrimPrefix(arg, "@")
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("alert: rules file: %w", err)
	}
	var clauses []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		clauses = append(clauses, line)
	}
	return ParseSpec(strings.Join(clauses, ","))
}

// DefaultRules is the built-in rule set the incidents experiment and
// `trenv-bench -alerts` use when no spec is given: fallback storms
// (pool outage in progress), an open circuit breaker, an error-rate
// spike, and fast-plus-slow SLO burn.
func DefaultRules() []Rule {
	return []Rule{
		{Name: "pool-outage", Kind: KindRate, Series: "trenv_fallbacks_total", Op: OpGT, Value: 0.2, For: 2 * time.Second},
		{Name: "breaker-open", Kind: KindThreshold, Series: "trenv_breaker_state", Op: OpGE, Value: 1},
		{Name: "error-spike", Kind: KindRate, Series: "trenv_errors_total", Op: OpGT, Value: 0.5, For: 2 * time.Second},
		{Name: "slo-burn", Kind: KindBurn, Function: "*", For: 2 * time.Second,
			Burn: []BurnWindow{{Window: time.Minute, Factor: 14}, {Window: 5 * time.Minute, Factor: 2}}},
	}
}

// splitOutside splits s on every sep that is not inside a {...} label
// selector.
func splitOutside(s string, sep byte) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '{':
			depth++
		case '}':
			if depth > 0 {
				depth--
			}
		case sep:
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// popFor strips a trailing for=<dur> option off the clause tail.
func popFor(parts []string) ([]string, time.Duration, error) {
	if len(parts) == 0 {
		return parts, 0, nil
	}
	last := parts[len(parts)-1]
	if !strings.HasPrefix(last, "for=") {
		return parts, 0, nil
	}
	d, err := time.ParseDuration(strings.TrimPrefix(last, "for="))
	if err != nil {
		return nil, 0, fmt.Errorf("bad for %q: %w", last, err)
	}
	if d < 0 {
		return nil, 0, fmt.Errorf("negative for %q", last)
	}
	return parts[:len(parts)-1], d, nil
}

// parseSelector splits "series{k=v,...}" into name and label map.
func parseSelector(s string) (string, map[string]string, error) {
	open := strings.IndexByte(s, '{')
	if open < 0 {
		if s == "" {
			return "", nil, fmt.Errorf("empty series")
		}
		return s, nil, nil
	}
	if !strings.HasSuffix(s, "}") || open == 0 {
		return "", nil, fmt.Errorf("bad selector %q", s)
	}
	name := s[:open]
	body := s[open+1 : len(s)-1]
	if body == "" {
		return name, nil, nil // "g{}" selects what "g" does
	}
	labels := make(map[string]string)
	for _, pair := range strings.Split(body, ",") {
		k, v, ok := strings.Cut(pair, "=")
		k = strings.TrimSpace(k)
		if !ok || k == "" {
			return "", nil, fmt.Errorf("bad label %q in selector %q", pair, s)
		}
		labels[k] = strings.TrimSpace(v)
	}
	return name, labels, nil
}

func parseBound(p []string, r *Rule) error {
	if len(p) == 3 && r.Kind == KindRate && strings.HasPrefix(p[2], "over=") {
		d, err := time.ParseDuration(strings.TrimPrefix(p[2], "over="))
		if err != nil || d <= 0 {
			return fmt.Errorf("bad over %q", p[2])
		}
		r.Over = d
		p = p[:2]
	}
	if len(p) != 2 {
		return fmt.Errorf("want %s:<name>:<series>:<op><value>", r.Kind)
	}
	name, labels, err := parseSelector(p[0])
	if err != nil {
		return err
	}
	r.Series, r.Labels = name, labels
	cond := p[1]
	for _, op := range []Op{OpGE, OpLE, OpGT, OpLT} { // two-char ops first
		if strings.HasPrefix(cond, string(op)) {
			v, err := strconv.ParseFloat(strings.TrimPrefix(cond, string(op)), 64)
			if err != nil || math.IsNaN(v) {
				return fmt.Errorf("bad bound %q", cond)
			}
			r.Op, r.Value = op, v
			return nil
		}
	}
	return fmt.Errorf("bad condition %q (want <op><value>)", cond)
}

func parseBurn(p []string, r *Rule) error {
	if len(p) != 2 {
		return fmt.Errorf("want burn:<name>:<function|*>:<win>@<factor>x[|...]")
	}
	r.Function = p[0]
	if r.Function == "" {
		return fmt.Errorf("empty function (use * for all)")
	}
	for _, wf := range strings.Split(p[1], "|") {
		win, fac, ok := strings.Cut(wf, "@")
		if !ok || !strings.HasSuffix(fac, "x") {
			return fmt.Errorf("bad burn window %q (want <win>@<factor>x)", wf)
		}
		w, err := time.ParseDuration(win)
		if err != nil {
			return err
		}
		f, err := strconv.ParseFloat(strings.TrimSuffix(fac, "x"), 64)
		if err != nil || !(f > 0) || math.IsInf(f, 0) { // written to reject NaN
			return fmt.Errorf("bad burn factor %q (want finite > 0)", fac)
		}
		if w <= 0 {
			return fmt.Errorf("bad burn window %q (want > 0)", win)
		}
		r.Burn = append(r.Burn, BurnWindow{Window: w, Factor: f})
	}
	return nil
}

func parseAbsence(p []string, r *Rule) error {
	if len(p) != 2 {
		return fmt.Errorf("want absence:<name>:<series>:<window>")
	}
	name, labels, err := parseSelector(p[0])
	if err != nil {
		return err
	}
	r.Series, r.Labels = name, labels
	w, err := time.ParseDuration(p[1])
	if err != nil {
		return err
	}
	if w <= 0 {
		return fmt.Errorf("bad window %q (want > 0)", p[1])
	}
	r.Window = w
	return nil
}
