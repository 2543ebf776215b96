package core

import (
	"strings"
	"testing"
)

func TestParseSpecPolicies(t *testing.T) {
	cases := []struct {
		spec string
		want Policy
	}{
		{"fcfs", FCFS{}},
		{"FCFS", FCFS{}},
		{" srpt ", SRPT{}},
		{"SRPT", SRPT{}},
		{"swpt", SWPT{}},
		{"SWPT", SWPT{}},
		{"firstprice", FirstPrice{}},
		{"FirstPrice", FirstPrice{}},
		{"fp", FirstPrice{}},
		{"pv", PresentValue{DiscountRate: 0.01}},
		{"presentvalue:rate=0.05", PresentValue{DiscountRate: 0.05}},
		{"firstreward", FirstReward{Alpha: 0.3, DiscountRate: 0.01}},
		{"fr:alpha=0.8", FirstReward{Alpha: 0.8, DiscountRate: 0.01}},
		{"firstreward:alpha=0.5", FirstReward{Alpha: 0.5, DiscountRate: 0.01}},
		{"FirstReward:Alpha=0.8,Rate=0.02", FirstReward{Alpha: 0.8, DiscountRate: 0.02}},
		{"scheduledprice", ScheduledPrice{}},
		{"scheduledprice:procs=8,rounds=3", ScheduledPrice{Processors: 8, Rounds: 3}},
	}
	for _, tc := range cases {
		got, err := ParseSpec(tc.spec)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.spec, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseSpec(%q) = %#v, want %#v", tc.spec, got, tc.want)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		spec    string
		errPart string
	}{
		{"", "empty spec"},
		{"nosuchpolicy", "unknown policy"},
		{"nope", "unknown policy"},
		{"bogus", "unknown policy"},
		{"fcfs:rate=1", "unknown parameter"},
		{"firstreward:aplha=0.8", "unknown parameter"},
		{"firstreward:bogusflag", "unknown flag"},
		{"FirstReward:Alpha=0.8,Rate=0.02,General", "unknown flag"},
		{"firstreward:general", "unknown flag"},
		{"pv:rate=abc", "not a number"},
		{"pv:rate=1,rate=2", "duplicate parameter"},
		{"firstreward:general,general", "duplicate flag"},
		{"pv:=2", "malformed parameter"},
		{"scheduledprice:procs=1.5", "not an integer"},
	}
	for _, tc := range cases {
		_, err := ParseSpec(tc.spec)
		if err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error containing %q", tc.spec, tc.errPart)
			continue
		}
		if !strings.Contains(err.Error(), tc.errPart) {
			t.Errorf("ParseSpec(%q) error %q does not mention %q", tc.spec, err, tc.errPart)
		}
	}
}

func TestSplitSpecShapes(t *testing.T) {
	sp, err := SplitSpec("Name:Key=Value, other = x ,flagA")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name != "name" {
		t.Errorf("name = %q", sp.Name)
	}
	if sp.Params["key"] != "Value" || sp.Params["other"] != "x" {
		t.Errorf("params = %v", sp.Params)
	}
	if !sp.Flags["flaga"] {
		t.Errorf("flags = %v", sp.Flags)
	}
	if _, err := SplitSpec("  "); err == nil {
		t.Error("blank spec accepted")
	}
}
