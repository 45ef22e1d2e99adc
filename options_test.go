package rap_test

import (
	"testing"

	"rap"
)

func TestNewConfigFromOptions(t *testing.T) {
	cfg, err := rap.NewConfig(
		rap.WithUniverse(1<<32),
		rap.WithEpsilon(0.01),
		rap.WithBranching(4),
		rap.WithMergeRatio(2),
		rap.WithFirstMerge(512),
	)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.UniverseBits != 32 {
		t.Fatalf("UniverseBits = %d, want 32", cfg.UniverseBits)
	}
	if cfg.Epsilon != 0.01 || cfg.Branch != 4 || cfg.MergeRatio != 2 || cfg.FirstMerge != 512 {
		t.Fatalf("options not applied: %+v", cfg)
	}
	// Validation fills defaults for fields no option touched.
	if cfg.MinSplitCount == 0 || cfg.MergeThresholdScale == 0 {
		t.Fatalf("validated config missing defaults: %+v", cfg)
	}
}

func TestWithUniverseRounding(t *testing.T) {
	cases := []struct {
		size uint64
		bits int
	}{
		{0, 64},  // full universe
		{1, 1},   // degenerate but valid
		{256, 8}, // exact power of two
		{257, 9}, // rounds up
		{1 << 63, 63},
	}
	for _, c := range cases {
		cfg, err := rap.NewConfig(rap.WithUniverse(c.size))
		if err != nil {
			t.Fatalf("WithUniverse(%d): %v", c.size, err)
		}
		if cfg.UniverseBits != c.bits {
			t.Fatalf("WithUniverse(%d) -> %d bits, want %d", c.size, cfg.UniverseBits, c.bits)
		}
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := rap.New(rap.WithEpsilon(2)); err == nil {
		t.Fatal("epsilon 2 accepted")
	}
	if _, err := rap.New(rap.WithBranching(3)); err == nil {
		t.Fatal("non-power-of-two branching accepted")
	}
	if _, err := rap.New(rap.WithSharding(0)); err == nil {
		t.Fatal("WithSharding(0) accepted")
	}
	if _, err := rap.New(rap.WithSampling(0)); err == nil {
		t.Fatal("WithSampling(0) accepted")
	}
	if _, err := rap.New(rap.WithSharding(2), rap.WithConcurrent()); err == nil {
		t.Fatal("sharding+concurrent accepted")
	}
	if _, err := rap.New(rap.WithSharding(2), rap.WithSampling(8)); err == nil {
		t.Fatal("sharding+sampling accepted")
	}
	if _, err := rap.New(rap.WithConcurrent(), rap.WithSampling(8)); err == nil {
		t.Fatal("concurrent+sampling accepted")
	}
}

func TestNewEngineSelection(t *testing.T) {
	cases := []struct {
		name string
		opts []rap.Option
		want string
	}{
		{"default", nil, "*core.Tree"},
		{"concurrent", []rap.Option{rap.WithConcurrent()}, "*shard.Engine/1"},
		{"sampled", []rap.Option{rap.WithSampling(8)}, "*core.SampledTree"},
		{"sampling-1-is-plain", []rap.Option{rap.WithSampling(1)}, "*core.Tree"},
		{"sharded", []rap.Option{rap.WithSharding(2)}, "*shard.Engine"},
	}
	for _, c := range cases {
		p, err := rap.New(c.opts...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var got string
		switch e := p.(type) {
		case *rap.Sharded:
			got = "*shard.Engine"
			if e.Shards() == 1 {
				got += "/1"
			}
		case *rap.SampledTree:
			got = "*core.SampledTree"
		case *rap.Tree:
			got = "*core.Tree"
		}
		if got != c.want {
			t.Fatalf("%s: engine %T (%s), want %s", c.name, p, got, c.want)
		}
	}
}
