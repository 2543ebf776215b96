package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Spec is a parsed policy/admission spec string. The grammar, shared by
// every binary in cmd/, is
//
//	name[:key=value,...,flag,...]
//
// e.g. "fcfs", "pv:rate=0.01", "firstreward:alpha=0.8,rate=0.01".
// Names, keys, and flags are case-insensitive; values keep their case.
// SplitSpec performs the purely syntactic split; ParseSpec (and its
// sibling admission.ParseSpec) interpret the result.
type Spec struct {
	Name   string
	Params map[string]string
	Flags  map[string]bool
}

// SplitSpec parses the spec grammar without interpreting names or keys.
// Duplicate keys and malformed key=value pairs are errors; bare words
// after the colon become flags.
func SplitSpec(spec string) (Spec, error) {
	trimmed := strings.TrimSpace(spec)
	name, rest, _ := strings.Cut(trimmed, ":")
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" {
		return Spec{}, fmt.Errorf("core: empty spec %q", spec)
	}
	sp := Spec{Name: name, Params: map[string]string{}, Flags: map[string]bool{}}
	for _, part := range strings.Split(rest, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, isParam := strings.Cut(part, "=")
		k = strings.ToLower(strings.TrimSpace(k))
		if !isParam {
			if sp.Flags[k] {
				return Spec{}, fmt.Errorf("core: duplicate flag %q in spec %q", k, spec)
			}
			sp.Flags[k] = true
			continue
		}
		v = strings.TrimSpace(v)
		if k == "" || v == "" {
			return Spec{}, fmt.Errorf("core: malformed parameter %q in spec %q (want key=value)", part, spec)
		}
		if _, dup := sp.Params[k]; dup {
			return Spec{}, fmt.Errorf("core: duplicate parameter %q in spec %q", k, spec)
		}
		sp.Params[k] = v
	}
	return sp, nil
}

// Float returns the named parameter as a float64, or def when absent.
func (s Spec) Float(key string, def float64) (float64, error) {
	v, ok := s.Params[key]
	if !ok {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("core: spec %q: parameter %s=%q is not a number", s.Name, key, v)
	}
	return f, nil
}

// Int returns the named parameter as an int, or def when absent.
func (s Spec) Int(key string, def int) (int, error) {
	v, ok := s.Params[key]
	if !ok {
		return def, nil
	}
	i, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("core: spec %q: parameter %s=%q is not an integer", s.Name, key, v)
	}
	return i, nil
}

// Check rejects parameters and flags outside the allowed sets, so typos
// like "firstreward:aplha=0.8" fail loudly instead of silently using the
// default.
func (s Spec) Check(params, flags []string) error {
	for k := range s.Params {
		if !contains(params, k) {
			return fmt.Errorf("core: spec %q: unknown parameter %q (allowed: %s)", s.Name, k, allowedList(params))
		}
	}
	for f := range s.Flags {
		if !contains(flags, f) {
			return fmt.Errorf("core: spec %q: unknown flag %q (allowed: %s)", s.Name, f, allowedList(flags))
		}
	}
	return nil
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func allowedList(list []string) string {
	if len(list) == 0 {
		return "none"
	}
	sorted := append([]string(nil), list...)
	sort.Strings(sorted)
	return strings.Join(sorted, ", ")
}

// ParseSpec constructs a scheduling policy from a spec string:
//
//	fcfs | srpt | swpt
//	firstprice | fp
//	pv[:rate=R] | presentvalue[:rate=R]
//	firstreward[:alpha=A,rate=R] | fr[...]
//	scheduledprice[:procs=P,rounds=K]
//
// Defaults: rate 0.01, alpha 0.3 (the paper's headline configuration). No
// policy takes a flag. FirstReward always ranks through the fast Eq. 4/5
// evaluators; the O(n²) Eq. 4 reference (OpportunityCosts with
// forceGeneral) is reachable only from code.
func ParseSpec(spec string) (Policy, error) {
	sp, err := SplitSpec(spec)
	if err != nil {
		return nil, err
	}
	switch sp.Name {
	case "fcfs":
		return FCFS{}, sp.Check(nil, nil)
	case "srpt":
		return SRPT{}, sp.Check(nil, nil)
	case "swpt":
		return SWPT{}, sp.Check(nil, nil)
	case "firstprice", "fp":
		return FirstPrice{}, sp.Check(nil, nil)
	case "pv", "presentvalue":
		if err := sp.Check([]string{"rate"}, nil); err != nil {
			return nil, err
		}
		rate, err := sp.Float("rate", 0.01)
		if err != nil {
			return nil, err
		}
		return PresentValue{DiscountRate: rate}, nil
	case "firstreward", "fr":
		if err := sp.Check([]string{"alpha", "rate"}, nil); err != nil {
			return nil, err
		}
		alpha, err := sp.Float("alpha", 0.3)
		if err != nil {
			return nil, err
		}
		rate, err := sp.Float("rate", 0.01)
		if err != nil {
			return nil, err
		}
		return FirstReward{Alpha: alpha, DiscountRate: rate}, nil
	case "scheduledprice":
		if err := sp.Check([]string{"procs", "rounds"}, nil); err != nil {
			return nil, err
		}
		procs, err := sp.Int("procs", 0)
		if err != nil {
			return nil, err
		}
		rounds, err := sp.Int("rounds", 0)
		if err != nil {
			return nil, err
		}
		return ScheduledPrice{Processors: procs, Rounds: rounds}, nil
	default:
		return nil, fmt.Errorf("core: unknown policy %q (want fcfs | srpt | swpt | firstprice | pv[:rate=] | firstreward[:alpha=,rate=] | scheduledprice[:procs=,rounds=])", sp.Name)
	}
}
