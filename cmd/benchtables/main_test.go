package main

import (
	"reflect"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	for _, tc := range []struct {
		spec    string
		want    []int
		wantErr string
	}{
		{spec: "all", want: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 15, 16, 17, 18}},
		{spec: "9, 1,9", want: []int{1, 9}},
		{spec: "1,12", wantErr: "unknown experiment 12 (removed; see EXPERIMENTS.md)"},
		{spec: "0", wantErr: "unknown experiment 0"},
		{spec: "19", wantErr: "unknown experiment 19"},
		{spec: "x", wantErr: `bad experiment "x"`},
	} {
		got, err := selectExperiments(tc.spec)
		if tc.wantErr != "" {
			if err == nil || err.Error() != tc.wantErr {
				t.Errorf("-e %s: err = %v, want %q", tc.spec, err, tc.wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("-e %s: got %v, %v; want %v", tc.spec, got, err, tc.want)
		}
	}
}
