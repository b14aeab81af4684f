// The exact decimal-to-float64 conversion behind the JSON scanner's
// number: Clinger's fast path, then the Eisel–Lemire algorithm.
//
// eiselLemire below is Go's strconv.eiselLemire64 (src/strconv/
// eisel_lemire.go, Copyright 2020 The Go Authors, BSD-style license,
// https://go.dev/LICENSE), itself after Lemire's fast_double_parser and
// Wuffs; see https://nigeltao.github.io/blog/2020/eisel-lemire.html and
// Lemire, "Number Parsing at a Gigabyte per Second" (arXiv 2101.11408).
// Its table of powers of ten is computed at start-up rather than listed.

package server

import (
	"math"
	"math/big"
	"math/bits"
)

// decimalFloat returns the float64 nearest ±man·10^exp, ties to even —
// strconv.ParseFloat's value for the same decimal — or false where it
// cannot decide that exactly: the exponent is outside the table, the
// product sits too near a halfway point, or the result is subnormal or
// overflows. Then the caller asks strconv.
func decimalFloat(man uint64, exp int, neg bool) (float64, bool) {
	if man>>53 == 0 && -22 <= exp && exp <= 22+15 {
		// Clinger: man and 10^|exp| are exact float64s, and one
		// correctly rounded multiply or divide rounds their product.
		// Past 10^22 the excess zeros join man while it stays exact.
		f, e := float64(man), exp
		if e > 22 {
			f, e = f*float64pow10[e-22], 22
		}
		if e == exp || f <= 1e15 {
			if e < 0 {
				f /= float64pow10[-e]
			} else {
				f *= float64pow10[e]
			}
			if neg {
				f = -f
			}
			return f, true
		}
	}
	return eiselLemire(man, exp, neg)
}

var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// The powers of ten in detailedPowersOfTen, both bounds inclusive.
const (
	minExp10 = -348
	maxExp10 = 347
)

// detailedPowersOfTen[e-minExp10] is 10^e's 128-bit mantissa rounded
// down, {low, high}: the integer part of 10^e·2^s for the s that puts it
// in [2^127, 2^128). The exponent s is implied (eiselLemire's
// 217706·e>>16). It is strconv's table, computed once from math/big.
var detailedPowersOfTen = func() (t [maxExp10 - minExp10 + 1][2]uint64) {
	var p, x big.Int
	var buf [16]byte
	put := func(e int) {
		x.FillBytes(buf[:])
		for i := range 8 {
			t[e-minExp10][1] = t[e-minExp10][1]<<8 | uint64(buf[i])
			t[e-minExp10][0] = t[e-minExp10][0]<<8 | uint64(buf[8+i])
		}
	}
	ten := big.NewInt(10)
	p.SetInt64(1)
	for e := 0; e <= maxExp10; e++ {
		if n := p.BitLen(); n > 128 {
			x.Rsh(&p, uint(n-128))
		} else {
			x.Lsh(&p, uint(128-n))
		}
		put(e)
		p.Mul(&p, ten)
	}
	p.SetInt64(1)
	for e := -1; e >= minExp10; e-- {
		// 10^-e lies in [2^(n-1), 2^n) and is no power of two, so
		// 2^(127+n) / 10^-e lies strictly between 2^127 and 2^128.
		p.Mul(&p, ten)
		x.Lsh(big.NewInt(1), uint(127+p.BitLen()))
		x.Quo(&x, &p)
		put(e)
	}
	return t
}()

func eiselLemire(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	// The terse comments refer to sections of the blog post above.

	// Exp10 Range.
	if man == 0 {
		if neg {
			f = math.Float64frombits(0x8000000000000000) // Negative zero.
		}
		return f, true
	}
	if exp10 < minExp10 || maxExp10 < exp10 {
		return 0, false
	}

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	pow := &detailedPowersOfTen[exp10-minExp10]
	xHi, xLo := bits.Mul64(man, pow[1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2 += 1
	}
	// retExp2 is a uint64. Zero or underflow means that we're in subnormal
	// float64 space. 0x7FF or above means that we're in Inf/NaN float64 space.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}
