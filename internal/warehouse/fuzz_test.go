package warehouse

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/ylt"
)

// FuzzCubeQuery drives Query and RecomputeCell over a fixed small cube
// whose attribute values carry the key scheme's separators, and whose
// region=a and lob=b cells have three members each. A filter
// of one or two (dimension, value) pairs must never panic; it hits
// exactly when its dimensions are cube dimensions and some contract
// matches every pair, a hit's summary equals RecomputeCell's, and a
// miss is ErrNoCell.
func FuzzCubeQuery(f *testing.F) {
	dims := []string{"region", "lob"}
	attrs := []map[string]string{
		{"region": "a", "lob": "b"},
		{"region": "a,lob=b", "lob": "z"},
		{"region": "x%2C", "lob": "b"},
		{"region": "x,", "lob": "z"},
		{"region": "a", "lob": "%"},
		{"region": "a", "lob": "b"},
	}
	st := rng.New(7)
	tables := make([]*ylt.Table, len(attrs))
	for i := range tables {
		tables[i] = ylt.New("c", 16)
		for j := range tables[i].Agg {
			tables[i].Agg[j] = st.Pareto(1000, 2.5)
			tables[i].OccMax[j] = tables[i].Agg[j] * 0.8
		}
	}
	b, err := NewBuilder(dims, attrs, 16, 1)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range stream.Chunks(16, 5) {
		if err := ingestRange(b, tables, r); err != nil {
			f.Fatal(err)
		}
	}
	cube, err := b.Finalize(f.Context(), tables)
	if err != nil {
		f.Fatal(err)
	}

	// The strings of TestKeyCollisionRegression.
	f.Add("region", "a", "", "")
	f.Add("lob", "b", "", "")
	f.Add("region", "a", "lob", "b")
	f.Add("region", "a,lob=b", "", "")
	f.Add("region", "a,lob=b", "lob", "z")
	f.Add("lob", "z", "", "")
	f.Add("region", "x%2C", "", "")
	f.Add("region", "x,", "lob", "z")
	f.Add("region", "a", "region", "x,")
	f.Add("region=a", "b", "lob", "b")
	f.Fuzz(func(t *testing.T, d1, v1, d2, v2 string) {
		filter := map[string]string{d1: v1}
		if d2 != "" {
			filter[d2] = v2
		}
		members := 0
		for _, a := range attrs {
			match := true
			for d, v := range filter {
				if !slices.Contains(dims, d) || a[d] != v {
					match = false
				}
			}
			if match {
				members++
			}
		}
		cell, err := cube.Query(filter)
		direct, derr := cube.RecomputeCell(filter)
		if members == 0 {
			if !errors.Is(err, ErrNoCell) || !errors.Is(derr, ErrNoCell) {
				t.Fatalf("%v: no contract matches, got Query err %v, RecomputeCell err %v", filter, err, derr)
			}
			return
		}
		if err != nil || derr != nil {
			t.Fatalf("%v: %d contracts match, got Query err %v, RecomputeCell err %v", filter, members, err, derr)
		}
		if cell.Members != members || !reflect.DeepEqual(cell.Summary, direct) {
			t.Fatalf("%v: cell %q has %d members and %+v, want %d and %+v", filter, cell.Key, cell.Members, cell.Summary, members, direct)
		}
	})
}
