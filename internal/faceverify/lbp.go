// Package faceverify implements the biometric identity-checking server
// of the paper's §5.2: a database of per-person face descriptors stored
// in a hash table (40-byte person IDs, 232 KiB values), against which
// clients verify a claimed identity by submitting a face image. The
// descriptor is a grid of local-binary-pattern histograms (Ahonen et
// al., the LBP algorithm the paper cites), compared with chi-square
// distance.
//
// The FERET dataset is not redistributable, so images are synthetic:
// a deterministic per-identity texture plus per-capture noise. What the
// evaluation measures — one 232 KiB value read from a 450 MB table per
// request — is a property of the access pattern, not of the pixels.
//
// As a service of a multi-service enclave the package is one isolation
// unit: other services reach it only through CrossCall (enforced by
// eleoslint's servicedomain pass).
//
//eleos:service faceverify
package faceverify

import (
	"bytes"
	"encoding/binary"
	"math"
)

// Image geometry (the paper resizes FERET images to 512x512 grayscale).
const (
	ImageSide  = 512
	ImageBytes = ImageSide * ImageSide
)

// Descriptor geometry: a 32x32 grid of cells, each summarized by a
// histogram over the 58 uniform LBP patterns, stored as little-endian
// uint32 — 58*1024*4 = 237,568 bytes = exactly the paper's 232 KiB.
const (
	GridSide        = 32
	CellSide        = ImageSide / GridSide
	Bins            = 58
	DescriptorBytes = Bins * GridSide * GridSide * 4
)

// KeyBytes is the person-ID key size (§5.2: 40-byte keys).
const KeyBytes = 40

// uniformBin maps each of the 256 LBP codes to one of the Bins bins:
// the 58 "uniform" patterns (at most two 0-1 transitions) each get their
// own bin; the rare non-uniform codes share bin 57 with the last uniform
// pattern, keeping the descriptor at exactly 58 bins.
var uniformBin = buildUniformMap()

func buildUniformMap() [256]uint8 {
	var m [256]uint8
	next := uint8(0)
	for code := 0; code < 256; code++ {
		if transitions(uint8(code)) <= 2 {
			m[code] = next
			if next < Bins-1 {
				next++
			}
		} else {
			m[code] = Bins - 1
		}
	}
	return m
}

func transitions(code uint8) int {
	n := 0
	for i := 0; i < 8; i++ {
		a := (code >> uint(i)) & 1
		b := (code >> uint((i+1)%8)) & 1
		if a != b {
			n++
		}
	}
	return n
}

// LBPDescriptor computes the full descriptor of a 512x512 grayscale
// image: the uniform-LBP code of every interior pixel, histogrammed per
// cell. This is the real algorithm, run on real bytes.
func LBPDescriptor(img []byte) []byte {
	if len(img) != ImageBytes {
		panic("faceverify: image must be 512x512 grayscale")
	}
	hist := make([]uint32, Bins*GridSide*GridSide)
	for y := 1; y < ImageSide-1; y++ {
		row := y * ImageSide
		for x := 1; x < ImageSide-1; x++ {
			c := img[row+x]
			var code uint8
			if img[row-ImageSide+x-1] >= c {
				code |= 1 << 0
			}
			if img[row-ImageSide+x] >= c {
				code |= 1 << 1
			}
			if img[row-ImageSide+x+1] >= c {
				code |= 1 << 2
			}
			if img[row+x+1] >= c {
				code |= 1 << 3
			}
			if img[row+ImageSide+x+1] >= c {
				code |= 1 << 4
			}
			if img[row+ImageSide+x] >= c {
				code |= 1 << 5
			}
			if img[row+ImageSide+x-1] >= c {
				code |= 1 << 6
			}
			if img[row+x-1] >= c {
				code |= 1 << 7
			}
			cell := (y/CellSide)*GridSide + x/CellSide
			hist[cell*Bins+int(uniformBin[code])]++
		}
	}
	out := make([]byte, DescriptorBytes)
	for i, v := range hist {
		binary.LittleEndian.PutUint32(out[i*4:], v)
	}
	return out
}

// chiRunBytes is the run length ChiSquare compares with bytes.Equal
// before it looks at the bins: 64 bins, which divides DescriptorBytes.
const chiRunBytes = 256

// ChiSquare computes the chi-square distance between two descriptors
// (smaller = more similar).
//
// It walks the descriptors in runs of chiRunBytes and skips a run whose
// bytes are equal; unequal runs go through the per-bin loop in bin
// order. The result is exact, bit for bit the sum of every bin's term
// in order: an equal bin's term is (x-x)²/s = +0, or nothing when
// s = 0; every term is ≥ +0, so the running sum is too, and d + (+0)
// == d bitwise for every d ≥ +0. Comparing an identical descriptor
// therefore costs a memory compare, not 59,392 divides.
func ChiSquare(a, b []byte) float64 {
	if len(a) != DescriptorBytes || len(b) != DescriptorBytes {
		panic("faceverify: descriptor length mismatch")
	}
	var d float64
	for off := 0; off < DescriptorBytes; off += chiRunBytes {
		ra, rb := a[off:off+chiRunBytes], b[off:off+chiRunBytes]
		if bytes.Equal(ra, rb) {
			continue
		}
		for i := 0; i+4 <= chiRunBytes; i += 4 {
			x := float64(binary.LittleEndian.Uint32(ra[i:]))
			y := float64(binary.LittleEndian.Uint32(rb[i:]))
			if s := x + y; s > 0 {
				d += (x - y) * (x - y) / s
			}
		}
	}
	return d
}

// VerifyThreshold is the accept/reject chi-square cutoff, calibrated on
// the synthetic generator: same-identity captures land far below it,
// different identities far above.
const VerifyThreshold = 60000

// SynthImage renders a deterministic 512x512 face-like texture for the
// given identity and capture variant: a per-identity low-frequency
// pattern (stable across captures) plus per-capture noise.
func SynthImage(id uint64, variant uint64) []byte {
	img := make([]byte, ImageBytes)
	// Per-identity control grid, smoothly interpolated.
	const ctrl = 16
	var grid [ctrl * ctrl]float64
	rng := splitmix(id*2654435761 + 12345)
	for i := range grid {
		rng = splitmix(rng)
		grid[i] = float64(rng%256) / 255
	}
	noise := splitmix(id ^ (variant * 0x9E3779B97F4A7C15))
	scale := float64(ImageSide) / ctrl
	for y := 0; y < ImageSide; y++ {
		gy := float64(y) / scale
		y0 := int(gy) % ctrl
		y1 := (y0 + 1) % ctrl
		fy := gy - math.Floor(gy)
		for x := 0; x < ImageSide; x++ {
			gx := float64(x) / scale
			x0 := int(gx) % ctrl
			x1 := (x0 + 1) % ctrl
			fx := gx - math.Floor(gx)
			v := grid[y0*ctrl+x0]*(1-fx)*(1-fy) +
				grid[y0*ctrl+x1]*fx*(1-fy) +
				grid[y1*ctrl+x0]*(1-fx)*fy +
				grid[y1*ctrl+x1]*fx*fy
			noise = splitmix(noise)
			// Small per-capture perturbation (±4 gray levels).
			p := int(v*255) + int(noise%9) - 4
			if p < 0 {
				p = 0
			} else if p > 255 {
				p = 255
			}
			img[y*ImageSide+x] = byte(p)
		}
	}
	return img
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// SynthDescriptor fabricates a descriptor directly from the identity
// seed, bypassing image rendering. Its byte-level shape matches real
// descriptors (per-cell counts summing to the cell pixel count), and the
// same (id) always yields the same descriptor, so benchmark-scale
// datasets (2,000 identities, 450 MB) load in milliseconds instead of
// re-running LBP over half a gigabyte of pixels. Correctness tests use
// the real pipeline; benchmarks measure memory behaviour, which only
// depends on descriptor size.
func SynthDescriptor(id uint64) []byte {
	out := make([]byte, DescriptorBytes)
	rng := splitmix(id * 0x9E3779B97F4A7C15)
	perCell := CellSide * CellSide
	for cell := 0; cell < GridSide*GridSide; cell++ {
		remaining := uint32(perCell)
		for b := 0; b < Bins-1; b++ {
			rng = splitmix(rng)
			v := uint32(rng) % (remaining/4 + 1)
			binary.LittleEndian.PutUint32(out[(cell*Bins+b)*4:], v)
			remaining -= v
		}
		binary.LittleEndian.PutUint32(out[(cell*Bins+Bins-1)*4:], remaining)
	}
	return out
}

// PersonID renders identity n as a fixed 40-byte key.
func PersonID(n uint64) []byte {
	id := make([]byte, KeyBytes)
	copy(id, "person-")
	binary.LittleEndian.PutUint64(id[8:], n)
	binary.LittleEndian.PutUint64(id[16:], splitmix(n))
	return id
}
