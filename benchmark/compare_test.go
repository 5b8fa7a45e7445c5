package main

import (
	"math"
	"testing"
)

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if spread([]float64{4}) != 0 || spread([]float64{3, 3, 3, 3}) != 0 {
		t.Fatal("one value, or equal values, spread 0")
	}
}

func TestJudge(t *testing.T) {
	tight := func(v float64) measurement {
		return measurement{Value: v, Samples: []float64{v * 0.99, v, v, v, v * 1.01}}
	}
	loose := func(v float64) measurement {
		return measurement{Value: v, Samples: []float64{v * 0.7, v * 0.8, v, v * 1.2, v * 1.3}}
	}
	for _, c := range []struct {
		name   string
		a, b   measurement
		better string
		bound  float64
		want   string
	}{
		{"lower is better, within bound", tight(100), tight(105), lower, 0.10, statusOK},
		{"lower is better, past bound", tight(100), tight(115), lower, 0.10, statusWorse},
		{"lower is better, improved", tight(100), tight(50), lower, 0.10, statusOK},
		{"higher is better, past bound", tight(100), tight(85), higher, 0.10, statusWorse},
		{"higher is better, improved", tight(100), tight(150), higher, 0.10, statusOK},
		{"a side too noisy to tell", loose(100), tight(150), lower, 0.10, statusUnresolved},
		{"no bound, equal", tight(7), tight(7), lower, 0, statusSame},
		{"no bound, moved", tight(7), tight(8), lower, 0, statusDiffers},
	} {
		if got, _ := judge(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
