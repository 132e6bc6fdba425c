package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fl"
	"repro/internal/wireless"
)

// bandFromCounts tallies what checkBandFrom exercised: inversions that
// finished from a start (water level, pmax floor, pmin junction,
// free-branch band), and the branch bandFrom returned.
type bandFromCounts struct {
	levels, floors, junctions, frees int
	pinned, free, floor, junction    int
}

// agree reports whether a warm answer a and its cold solve b agree to
// 1e-14 relative, widened where the inversion's own variable v (the water
// level x, or the SNR K/b of a band) is small: there phi(x), log1p(e)/e
// and the free branch's h(y) cancel to about 2^-52/v relative, and both
// paths settle anywhere within that.
func agree(a, b, v float64) bool {
	return relDiff(a, b) <= 1e-14+0x1p-50/v
}

// checkBandFrom runs the split search's band inversion for device dev at
// rate floor rmin and price lambda from the start st, which it carries on
// as bandFrom does, and checks it against the cold path. Each inversion
// that has a start, the water level x and the floor, junction and
// free-branch bands, agrees with its cold solve (agree); so does
// bandFrom's band with bandAtFree's, and on the water level its power and
// expm1(x) with the cold x's. The band inverts the marginal as in
// TestBandAtInvertsMarginal: marginal(b) = lambda, or the floor with a
// marginal below lambda, or the junction with lambda inside its drop.
func checkBandFrom(t testing.TB, dev fl.Device, n0, rmin, lambda float64, st *bandStart, n *bandFromCounts) {
	t.Helper()
	rd, ok := newSplitDevice(dev, rmin, wireless.RateLimit(dev.PMax, dev.Gain, n0))
	if !ok {
		return
	}
	c := lambda * rmin * dev.Gain / (dev.UploadBits * n0)
	xCold := level(c)
	if x, _, ok := levelFrom(st.x, c); ok {
		n.levels++
		if !agree(x, xCold, xCold) {
			t.Errorf("rmin %g λ=%g: water level %.17g from %g, cold %.17g", rmin, lambda, x, st.x, xCold)
		}
	}
	for _, p := range []float64{dev.PMax, dev.PMin} {
		if !(rmin < wireless.RateLimit(p, dev.Gain, n0)) {
			continue
		}
		cold, err := wireless.BandwidthForRate(rmin, p, dev.Gain, n0)
		start, count := &st.floor, &n.floors
		if p == dev.PMin {
			start, count = &st.junction, &n.junctions
		}
		b, colds := *start, 0
		warm := rd.bandForRate(n0, p, &b, &colds)
		if colds == 0 {
			*count++
		}
		if err == nil && !agree(warm, cold, p*dev.Gain/(n0*cold)) {
			t.Errorf("rmin %g p=%g: band %.17g from %g, cold %.17g", rmin, p, warm, *start, cold)
		}
	}
	if dev.PMin > 0 {
		cold, _ := rd.freeBand(n0, lambda, 0)
		if warm, ok := rd.freeBand(n0, lambda, st.free); ok {
			n.frees++
			if !agree(warm, cold, dev.PMin*dev.Gain/(n0*cold)) {
				t.Errorf("λ=%g: free band %.17g from %g, cold %.17g", lambda, warm, st.free, cold)
			}
		}
	}

	var free, coldFree freeBranch
	b, p, x, em1 := rd.bandFrom(n0, lambda, &free, st)
	bCold, _ := rd.bandAtFree(n0, lambda, &coldFree)
	v := xCold // the band's own variable: x on the water level, else its SNR
	if em1 == 0 {
		v = max(p, dev.PMin) * dev.Gain / (n0 * bCold)
	}
	if !agree(b, bCold, v) {
		t.Errorf("rmin %g λ=%g: band %.17g, cold %.17g", rmin, lambda, b, bCold)
	}
	if em1 != 0 {
		em1Cold := math.Expm1(xCold)
		if !agree(x, xCold, v) || !agree(em1, em1Cold, v) || !agree(p, em1Cold*n0*bCold/dev.Gain, v) {
			t.Errorf("rmin %g λ=%g: x %.17g, expm1 %.17g, power %.17g; cold x %.17g, expm1 %.17g", rmin, lambda, x, em1, p, xCold, em1Cold)
		}
	}
	if math.IsInf(b, 1) {
		return
	}
	eager, err := newReducedDevice(dev, n0, rmin)
	if err != nil {
		return
	}
	m := eager.marginal(n0, b)
	if p == 0 || em1 != 0 { // the free branch or the water level
		if math.Abs(m-lambda) > 1e-8*lambda {
			t.Errorf("rmin %g λ=%g: b=%g has marginal %g", rmin, lambda, b, m)
		}
		n.free += b2i(em1 == 0)
		n.pinned += b2i(em1 != 0)
		return
	}
	// The floor, whose marginal is below lambda, or the junction, where
	// the power is pinned above pmin left of b and free at pmin right of
	// it, and lambda lies between the two marginals. At fixed power
	// (PMin = PMax) the two are one band.
	lo, hi := eager.marginal(n0, b*(1+1e-9)), eager.marginal(n0, b*(1-1e-9))
	onFloor := agree(b, eager.bForced, v) && m <= lambda*(1+1e-9)
	if !onFloor && !(lo <= lambda*(1+1e-7) && lambda <= hi*(1+1e-7)) {
		t.Errorf("rmin %g λ=%g: b=%g has marginal %g, not a root, floor or junction [%g, %g]", rmin, lambda, b, m, lo, hi)
	}
	n.floor += b2i(p == dev.PMax)
	n.junction += b2i(p != dev.PMax)
}

// bandVariant sets device d to one of TestDeadlineStress's variants: 0 the
// defaults, 1 fixed power (PMin = PMax), 2 and 3 a frequency floor of half
// and three quarters of FMax with PMin = PMax/2.
func bandVariant(d *fl.Device, variant int) {
	switch variant {
	case 1:
		d.PMin = d.PMax
	case 2, 3:
		d.FMin, d.PMin = (0.25+0.25*float64(variant-1))*d.FMax, 0.5*d.PMax
	}
}

// splitRange is the span of upload times a split search of system s may
// ask of d: from its fastest upload, at pmax over the whole band, shaded
// by 1e-9 as the search's tLo is, to 1 s.
func splitRange(s *fl.System, d fl.Device) (lo, hi float64) {
	return d.UploadBits / wireless.Rate(d.PMax, s.Bandwidth, d.Gain, s.N0) * (1 + 1e-9), 1
}

// TestBandFromMatchesCold carries each device's inversion start through a
// seeded run of splits and prices, as the split search does within one
// solve, and checks every step against the cold path (checkBandFrom).
// Prices span 1e-14 to 1e2; each step either nudges the split and price
// (by about 1e-6 and 1e-7 relative, as a search closing its bracket does)
// or jumps to a split and price drawn afresh. Devices cover
// TestDeadlineStress's variants: the defaults, fixed power, and frequency
// floors with PMin = PMax/2. Every inversion must finish from a start some
// of the time, and every branch must be returned.
func TestBandFromMatchesCold(t *testing.T) {
	var n bandFromCounts
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for variant := 0; variant < 4; variant++ {
			s := newTestSystem(10, seed)
			for i := range s.Devices {
				d := s.Devices[i]
				bandVariant(&d, variant)
				lo, hi := splitRange(s, d)
				var st bandStart
				tUp, logPrice := lo, -14.0
				for step := 0; step < 120; step++ {
					if rng.Intn(3) == 0 {
						tUp = lo * math.Pow(hi/lo, rng.Float64())
						logPrice = -14 + 16*rng.Float64()
					} else {
						tUp = min(hi, max(lo, tUp*(1+1e-6*rng.NormFloat64())))
						logPrice += 1e-7 * rng.NormFloat64() / math.Ln10
					}
					checkBandFrom(t, d, s.N0, d.UploadBits/tUp, math.Pow(10, logPrice), &st, &n)
				}
			}
		}
	}
	if n.levels == 0 || n.floors == 0 || n.junctions == 0 || n.frees == 0 ||
		n.pinned == 0 || n.free == 0 || n.floor == 0 || n.junction == 0 {
		t.Errorf("not all exercised: %+v", n)
	}
	t.Logf("finished from a start: %d levels, %d floors, %d junctions, %d free bands; branches: %d pinned, %d free, %d floor, %d junction",
		n.levels, n.floors, n.junctions, n.frees, n.pinned, n.free, n.floor, n.junction)
}

// TestBandFromFallsBackCold hands bandFrom starts its iterations cannot
// use: none, negative, NaN and infinite, and a water level so far up that
// its exponential overflows. Each inversion must then run the cold path
// and count it, so the band and the stored water level equal bandAtFree's
// and level's bit for bit.
func TestBandFromFallsBackCold(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	s := newTestSystem(10, 3)
	var branches [4]int // pinned, free, floor, junction
	for i, d := range s.Devices {
		lo, hi := splitRange(s, d)
		for _, tUp := range []float64{lo * 1.01, math.Sqrt(lo * hi), hi} {
			rmin := d.UploadBits / tUp
			rd, ok := newSplitDevice(d, rmin, wireless.RateLimit(d.PMax, d.Gain, s.N0))
			if !ok {
				continue
			}
			for e := -14.0; e <= 2; e++ {
				lambda := math.Pow(10, e)
				for _, st := range []bandStart{{}, {-1, -1, -1, -1, 0}, {nan, nan, nan, nan, 0}, {inf, inf, inf, inf, 0}, {x: 1e300}} {
					v := st.x
					var free, coldFree freeBranch
					b, p, _, em1 := rd.bandFrom(s.N0, lambda, &free, &st)
					bCold, _ := rd.bandAtFree(s.N0, lambda, &coldFree)
					if b != bCold && !(math.IsInf(b, 1) && math.IsInf(bCold, 1)) {
						t.Errorf("device %d rmin %g λ=%g start %g: band %.17g, cold %.17g", i, rmin, lambda, v, b, bCold)
					}
					if x := level(lambda * rmin * d.Gain / (d.UploadBits * s.N0)); st.x != x {
						t.Errorf("device %d rmin %g λ=%g start %g: stored level %.17g, cold %.17g", i, rmin, lambda, v, st.x, x)
					}
					wantColds := 1 // the water level
					switch {
					case em1 != 0:
						branches[0]++
					case p == 0:
						branches[1]++
						wantColds++ // the free band
					case p == d.PMax:
						branches[2]++
						wantColds++ // the floor
					default:
						branches[3]++
						wantColds += 2 // the free band and the junction
					}
					if em1 != 0 && p >= d.PMax {
						wantColds++ // the floor, rounded below the water-level band
					}
					if st.colds != wantColds {
						t.Errorf("device %d rmin %g λ=%g start %g: %d cold inversions, want %d", i, rmin, lambda, v, st.colds, wantColds)
					}
				}
			}
		}
	}
	for k, c := range branches {
		if c == 0 {
			t.Errorf("branch %d never returned: %v", k, branches)
		}
	}
}

// FuzzBandFrom runs checkBandFrom on a fuzzed device twice, carrying its
// start from the first step to the second: seed, device variant (see
// bandVariant), the split's share of its log range, the price's log10
// from -14 to 2, and the second step's relative split move and price move
// in decades.
func FuzzBandFrom(f *testing.F) {
	f.Add(int64(1), uint8(0), 0.5, -10.0, 1e-6, 1e-7)
	f.Add(int64(2), uint8(1), 0.1, -12.0, 0.5, 1.2)
	f.Add(int64(3), uint8(2), 0.9, -8.0, -0.3, -2.0)
	f.Add(int64(4), uint8(3), 0.01, -13.5, 3.0, 0.0)
	f.Add(int64(5), uint8(0), 0.3, 1.0, -1e-9, -3.5)
	f.Fuzz(func(t *testing.T, seed int64, variant uint8, share, logPrice, splitMove, priceMove float64) {
		if !(share >= 0 && share <= 1) || !(logPrice >= -14 && logPrice <= 2) ||
			!(splitMove > -0.9 && splitMove < 9) || !(math.Abs(priceMove) <= 4) {
			t.Skip()
		}
		s := newTestSystem(1, seed)
		d := s.Devices[0]
		bandVariant(&d, int(variant%4))
		lo, hi := splitRange(s, d)
		tUp := lo * math.Pow(hi/lo, share)
		var st bandStart
		var n bandFromCounts
		checkBandFrom(t, d, s.N0, d.UploadBits/tUp, math.Pow(10, logPrice), &st, &n)
		tUp = min(hi, max(lo, tUp*(1+splitMove)))
		checkBandFrom(t, d, s.N0, d.UploadBits/tUp, math.Pow(10, min(2, max(-14, logPrice+priceMove))), &st, &n)
	})
}
