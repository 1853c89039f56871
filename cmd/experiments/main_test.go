package main

import (
	"maps"
	"strings"
	"testing"
)

func TestParseFigs(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"all", figNames},
		{"4", []string{"4"}},
		{"3,4,5,ablations,cdnwide", []string{"3", "4", "5", "ablations", "cdnwide"}},
		{"rounding,rounding", []string{"rounding"}},
	} {
		got, err := parseFigs(tc.in)
		if err != nil {
			t.Errorf("%q: %v", tc.in, err)
			continue
		}
		want := map[string]bool{}
		for _, n := range tc.want {
			want[n] = true
		}
		if !maps.Equal(got, want) {
			t.Errorf("%q selects %v, want %v", tc.in, got, tc.want)
		}
	}
	// Names match exactly: no substring, case or space is forgiven, and
	// the removed policies figure is unknown.
	for _, in := range []string{"", "bogus", "2x", "45", "Ablations", "3, 4", "3,", "policies", "baselines,policies"} {
		_, err := parseFigs(in)
		if err == nil {
			t.Errorf("%q accepted", in)
			continue
		}
		if !strings.Contains(err.Error(), "ablations, prefetch, baselines") {
			t.Errorf("%q: the error does not list the valid names: %v", in, err)
		}
	}
}
