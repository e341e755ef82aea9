package faceverify

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// chiSquareRef is the plain per-bin chi-square loop ChiSquare must
// reproduce bit for bit.
func chiSquareRef(a, b []byte) float64 {
	var d float64
	for i := 0; i+4 <= DescriptorBytes; i += 4 {
		x := float64(binary.LittleEndian.Uint32(a[i:]))
		y := float64(binary.LittleEndian.Uint32(b[i:]))
		if s := x + y; s > 0 {
			d += (x - y) * (x - y) / s
		}
	}
	return d
}

// withBins returns a copy of d with the given bins incremented by one.
func withBins(d []byte, bins ...int) []byte {
	out := append([]byte(nil), d...)
	for _, bin := range bins {
		v := binary.LittleEndian.Uint32(out[bin*4:])
		binary.LittleEndian.PutUint32(out[bin*4:], v+1)
	}
	return out
}

// filled returns a descriptor with every bin set to v.
func filled(v uint32) []byte {
	d := make([]byte, DescriptorBytes)
	for i := 0; i < DescriptorBytes; i += 4 {
		binary.LittleEndian.PutUint32(d[i:], v)
	}
	return d
}

func TestChiSquareBitIdentical(t *testing.T) {
	type pair struct {
		name string
		a, b []byte
	}
	var pairs []pair

	// Real LBP pipeline: genuine captures share about half their bins
	// with the enrolled descriptor, so most runs differ.
	const ids, variants = 8, 4
	var captures [ids][variants][]byte
	for id := 0; id < ids; id++ {
		for v := 0; v < variants; v++ {
			captures[id][v] = LBPDescriptor(SynthImage(uint64(id), uint64(v)))
		}
	}
	for id := 0; id < ids; id++ {
		for v := 0; v < variants; v++ {
			pairs = append(pairs,
				pair{fmt.Sprintf("lbp genuine %d/%d", id, v), captures[id][0], captures[id][v]},
				pair{fmt.Sprintf("lbp impostor %d/%d", id, v), captures[(id+1)%ids][0], captures[id][v]})
		}
	}

	// Synthetic descriptors: identical, and different identities.
	synth := SynthDescriptor(3)
	pairs = append(pairs,
		pair{"synthetic identical", synth, append([]byte(nil), synth...)},
		pair{"synthetic different", synth, SynthDescriptor(4)})

	// One differing bin at either end of a run and at the last bin;
	// two differing bins inside one run.
	const runBins = chiRunBytes / 4
	lastBin := DescriptorBytes/4 - 1
	for _, bins := range [][]int{
		{0}, {runBins - 1}, {runBins}, {2*runBins - 1},
		{500 * runBins}, {501*runBins - 1},
		{lastBin - runBins + 1}, {lastBin},
		{runBins, 2*runBins - 1}, {runBins + 1, runBins + 2},
	} {
		pairs = append(pairs, pair{fmt.Sprintf("synthetic bins %v", bins), synth, withBins(synth, bins...)})
	}

	// Extreme bin values.
	zero, full := filled(0), filled(math.MaxUint32)
	pairs = append(pairs,
		pair{"zero zero", zero, filled(0)},
		pair{"zero synthetic", zero, synth},
		pair{"zero last bin", zero, withBins(zero, lastBin)},
		pair{"zero first bin", withBins(zero, 0), zero},
		pair{"max max", full, filled(math.MaxUint32)},
		pair{"max zero", full, zero},
		pair{"max synthetic", full, synth})

	for _, p := range pairs {
		want, got := chiSquareRef(p.a, p.b), ChiSquare(p.a, p.b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: ChiSquare = %v (%#x), per-bin loop = %v (%#x)",
				p.name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if (got < VerifyThreshold) != (want < VerifyThreshold) {
			t.Errorf("%s: verdict differs: %v vs %v", p.name, got, want)
		}
	}
}

// chiSink keeps the compiler from discarding benchmarked comparisons.
var chiSink float64

func BenchmarkChiSquare(b *testing.B) {
	synth := SynthDescriptor(1)
	enrolled := LBPDescriptor(SynthImage(7, 0))
	for _, bc := range []struct {
		name string
		a, b []byte
	}{
		{"identical", synth, append([]byte(nil), synth...)},
		{"genuine_lbp", enrolled, LBPDescriptor(SynthImage(7, 1))},
		{"impostor_lbp", enrolled, LBPDescriptor(SynthImage(8, 1))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(DescriptorBytes)
			for i := 0; i < b.N; i++ {
				chiSink = ChiSquare(bc.a, bc.b)
			}
		})
	}
}
