package server

import (
	"math"
	"regexp"
	"strconv"
	"testing"
)

// numberCases are the numbers the exact pass is most likely to get
// wrong: halfway cases, mantissas either side of 19 digits, leading and
// trailing zeros, signed zero, the subnormal and overflow edges, and
// exponents at both ends of the power-of-ten table and past them.
var numberCases = []string{
	"9007199254740993", "9007199254740992", "9007199254740995", "-9007199254740993",
	"2.2250738585072011e-308", "2.2250738585072014e-308", "2.2250738585072012e-308",
	"1234567890123456789", "9999999999999999999", "12345678901234567890", "12345678901234567891",
	"18446744073709551615", "18446744073709551616", "0.12345678901234567890123",
	"123456789012345678901234567890123456789012345678901234567890",
	"0.1000000000000000055511151231257827", "0.1000000000000000055511151231257828",
	"0.000000000000000000000000000001234", "0.00001", "1.000000000000000000000000000",
	"100000000000000000000000000000", "1000000000000000000000e-21", "1.5000000000000000000000000001",
	"0", "-0", "-0.0", "0.0e0", "-0e5", "0e-999", "-0.0000e+999", "0.000000000000000000000000000000e400",
	"4.9e-324", "5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324", "1e-400", "-1e-400",
	"1e400", "-1e400", "1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
	"1e-348", "1e-349", "1e347", "1e348", "9999999999999999999e-348", "9999999999999999999e347",
	"1e-326", "1e-325", "1e-324", "1e-323", "1e22", "1e23", "9007199254740991e22", "9007199254740993e-22",
	"-4.772654340718705e+39", "1234567e30", "9e37", "123456789012345e23",
	"12.533333333333333", "7.104655519014861", "-3.0000000000000004", "0.3", "1e0", "1E+2", "2.5e-1",
	"1e0000000000000000000001", "1e-99999999999999999999", "0.1e1000000", "123456789e-1000000",
	// Products rounded wrongly from the high 64 bits of a table row alone.
	"6311542222037693.5", "4048466710684934e-145", "49110054262063554e129", "1935514966290281448e-192",
	"3975100743280978223e223", "63825488771081577e34",
}

// parseJSONNumber is the number pass as it was before the exact
// conversion: JSON's grammar at the start of s (after whitespace), then
// strconv.ParseFloat on those bytes. The grammar is greedy: a '.' or an
// 'e' the number could continue with must be followed by its digits.
// ok is false where the grammar fails or strconv refuses; end is the
// offset past the number.
var jsonNumber = regexp.MustCompile(`^[ \t\n\r]*(-?(?:0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?)`)

func parseJSONNumber(s string) (x float64, end int, ok bool) {
	m := jsonNumber.FindStringSubmatchIndex(s)
	if m == nil {
		return 0, 0, false
	}
	if end = m[3]; end < len(s) && (s[end] == '.' && m[4] < 0 && m[6] < 0 || s[end]|0x20 == 'e' && m[6] < 0) {
		return 0, 0, false
	}
	x, err := strconv.ParseFloat(s[m[2]:end], 64)
	return x, end, err == nil
}

// sameNumber checks the scanner's number pass on s against
// parseJSONNumber, bit for bit.
func sameNumber(t *testing.T, s string) {
	t.Helper()
	want, end, wantOK := parseJSONNumber(s)
	sc := jsonScanner{b: []byte(s)}
	var got float64
	ok := sc.number(&got)
	if ok != wantOK || ok && (sc.off != end || math.Float64bits(got) != math.Float64bits(want)) {
		t.Fatalf("number(%q) = %v (%#x) ok %v end %d; strconv %v (%#x) ok %v end %d",
			s, got, math.Float64bits(got), ok, sc.off, want, math.Float64bits(want), wantOK, end)
	}
}

// TestNumberEqualsStrconv: on the hard cases, alone and inside an
// ingest batch and a match body, every number the scanner takes has
// strconv.ParseFloat's bits, and it takes exactly what strconv takes.
func TestNumberEqualsStrconv(t *testing.T) {
	for _, s := range numberCases {
		sameNumber(t, s)
		sameNumber(t, " \n"+s+",")
		want, _, ok := parseJSONNumber(s)
		batch, took := scanSamples([]byte(`[{"t":` + s + `,"pos":[1,` + s + `]}]`))
		if took != ok || ok && (math.Float64bits(batch[0].T) != math.Float64bits(want) ||
			math.Float64bits(batch[0].Pos[1]) != math.Float64bits(want)) {
			t.Errorf("scanSamples with %s: took %v %+v, strconv %v ok %v", s, took, batch, want, ok)
		}
		req, took := scanMatchRequest([]byte(`{"seq":[{"t":` + s + `,"pos":[` + s + `],"state":1}],"now":` + s + `}`))
		if took != ok || ok && (math.Float64bits(req.Seq[0].T) != math.Float64bits(want) ||
			math.Float64bits(req.Seq[0].Pos[0]) != math.Float64bits(want) || math.Float64bits(*req.Now) != math.Float64bits(want)) {
			t.Errorf("scanMatchRequest with %s: took %v %+v, strconv %v ok %v", s, took, req, want, ok)
		}
	}
}

// TestEveryPowerOfTenRow: 1eE and 9999999999999999999eE for every row E
// of the power-of-ten table, through the number pass and through
// decimalFloat alone, equal strconv bit for bit; and every row whose
// value is a normal float64 is decided without strconv.
func TestEveryPowerOfTenRow(t *testing.T) {
	for e := minExp10; e <= maxExp10; e++ {
		for _, man := range []uint64{1, 9999999999999999999} {
			s := strconv.FormatUint(man, 10) + "e" + strconv.Itoa(e)
			sameNumber(t, s)
			want, err := strconv.ParseFloat(s, 64)
			got, ok := decimalFloat(man, e, false)
			if ok && math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("decimalFloat(%d, %d) = %v, strconv %v", man, e, got, want)
			}
			if normal := err == nil && math.Abs(want) >= 0x1p-1022; normal && !ok {
				t.Errorf("decimalFloat(%d, %d) declined the normal %v", man, e, want)
			}
		}
	}
}

// FuzzNumber is the differential of the exact number pass. For any
// text, the scanner's number takes exactly what JSON's grammar and
// strconv.ParseFloat take, with strconv's bits, -0 included — so the
// only way it declines a value is by asking strconv. For any mantissa,
// exponent and sign, decimalFloat either declines or returns strconv's
// bits for that decimal.
func FuzzNumber(f *testing.F) {
	for i, s := range numberCases {
		f.Add(s, uint64(i)*0x9E3779B97F4A7C15, int16(i*37-300), i%2 == 0)
	}
	f.Add("", uint64(0), int16(0), true)
	f.Add("1.", uint64(1)<<53+1, int16(0), false)
	f.Add("01", uint64(9007199254740993), int16(-22), false)
	f.Add("-", uint64(9999999999999999999), int16(-348), true)
	f.Add("1e", uint64(1), int16(347), false)
	f.Fuzz(func(t *testing.T, s string, man uint64, e int16, neg bool) {
		sameNumber(t, s)
		exp := int(e) % 400 // mostly inside the table
		got, ok := decimalFloat(man, exp, neg)
		if !ok {
			return
		}
		text := strconv.FormatUint(man, 10) + "e" + strconv.Itoa(exp)
		if neg {
			text = "-" + text
		}
		want, err := strconv.ParseFloat(text, 64)
		if err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("decimalFloat(%d, %d, %v) = %v (%#x), strconv(%s) = %v (%#x), %v",
				man, exp, neg, got, math.Float64bits(got), text, want, math.Float64bits(want), err)
		}
	})
}
