package main

import "testing"

// Small-roster smoke coverage for the scale harness: every topology the
// load generator exercises must run to completion in-process.
func TestScaleLoadFlat(t *testing.T) {
	for _, cfg := range []ScaleConfig{
		{Clients: 40, Dim: 64, Rounds: 3},
		{Clients: 40, Dim: 64, Rounds: 3, Buffered: true},
		{Clients: 40, Dim: 64, Rounds: 3, Window: 4, ReadBuf: 256},
	} {
		res, err := RunScaleLoad(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if res.Mode != cfg.mode() || res.RoundsPerSec <= 0 {
			t.Fatalf("%+v: implausible result %+v", cfg, res)
		}
	}
}

func TestScaleLoadTree(t *testing.T) {
	res, err := RunScaleLoad(ScaleConfig{Clients: 30, Dim: 64, Rounds: 3, Leaves: 3, ReadBuf: 256})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "tree" || res.Leaves != 3 {
		t.Fatalf("implausible result %+v", res)
	}
}

func TestScaleConfigValidation(t *testing.T) {
	if _, err := RunScaleLoad(ScaleConfig{Clients: 0, Dim: 1, Rounds: 1}); err == nil {
		t.Fatal("zero clients accepted")
	}
	if _, err := RunScaleLoad(ScaleConfig{Clients: 10, Dim: 8, Rounds: 1, Leaves: 3, Buffered: true}); err == nil {
		t.Fatal("buffered tree accepted")
	}
	if _, err := RunScaleLoad(ScaleConfig{Clients: 3, Dim: 8, Rounds: 1, Leaves: 3}); err == nil {
		t.Fatal("starved leaves accepted")
	}
}
