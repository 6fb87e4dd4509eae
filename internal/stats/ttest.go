package stats

import "math"

// TTestResult holds the outcome of a one-sided t-test, as used for
// Table 2 of the paper ("we do not include the workloads for which a
// single-sided Student's T-test fails to reject a hypothesis of full-program
// slowdown with 95+% probability").
type TTestResult struct {
	T           float64 // t statistic
	DF          float64 // degrees of freedom
	P           float64 // one-sided p-value for mean(a) > mean(b)
	MeanA       float64
	MeanB       float64
	Significant bool // P < alpha
}

// OneSidedPairedT tests H1: mean(a-b) > 0 with a paired (one-sample on
// differences) Student's t-test. Pairing is the natural fit for Table 2,
// where each seed produces one baseline and one Mallacc measurement of the
// same request stream.
func OneSidedPairedT(a, b []float64, alpha float64) TTestResult {
	if len(a) != len(b) {
		panic("stats: paired t-test with mismatched samples")
	}
	n := len(a)
	res := TTestResult{MeanA: MeanOf(a), MeanB: MeanOf(b)}
	if n < 2 {
		res.P = 1
		return res
	}
	var w Welford
	for i := range a {
		w.Add(a[i] - b[i])
	}
	sd := w.StdDev()
	res.DF = float64(n - 1)
	if sd == 0 {
		if w.Mean() > 0 {
			res.T = math.Inf(1)
			res.P = 0
			res.Significant = true
		} else {
			res.P = 1
		}
		return res
	}
	res.T = w.Mean() / (sd / math.Sqrt(float64(n)))
	res.P = 1 - StudentTCDF(res.T, res.DF)
	res.Significant = res.P < alpha
	return res
}

// StudentTCDF returns P(T <= t) for Student's t distribution with df
// degrees of freedom, computed via the regularized incomplete beta function.
func StudentTCDF(t, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	x := df / (df + t*t)
	p := 0.5 * RegIncBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// RegIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes style), accurate
// to ~1e-12 over the domain needed for t-tests.
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lbeta - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta function
// by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
