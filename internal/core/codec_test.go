package core

import (
	"crypto/x509"
	"strings"
	"testing"
	"time"

	"tlsfof/internal/classify"
	"tlsfof/internal/hostdb"
)

func codecCases() []Measurement {
	return []Measurement{
		// The all-defaults record: every field empty, time at the Unix
		// epoch (the codec carries wall-clock nanoseconds, so times must
		// be UnixNano-representable — every real measurement is).
		{Time: time.Unix(0, 0).UTC()},
		{
			Time:         time.Date(2014, time.January, 6, 12, 30, 45, 987654321, time.UTC),
			ClientIP:     0xC0A80101,
			Country:      "US",
			Host:         "tlsresearch.byu.edu",
			HostCategory: hostdb.Popular,
			Campaign:     "first-study",
			Obs: Observation{
				Proxied:         true,
				IssuerOrg:       "Fortinet",
				IssuerCN:        "FortiGate CA",
				IssuerOU:        "Unit",
				KeyBits:         1024,
				OriginalKeyBits: 2048,
				SigAlg:          x509.SHA256WithRSA,
				MD5Signed:       true,
				WeakKey:         true,
				UpgradedKey:     false,
				IssuerCopied:    true,
				SubjectDrift:    true,
				ChainLen:        3,
				Category:        classify.Category(2),
				ProductName:     "FortiGate",
			},
		},
		{
			Time:     time.Unix(0, -12345).UTC(), // pre-epoch wall time
			ClientIP: 0xFFFFFFFF,
			Country:  "??",
			Host:     "a",
			Campaign: "",
			Obs: Observation{
				IssuerOrg: "",
				IssuerCN:  "null\x00mixed\xffbytes",
				IssuerOU:  strings.Repeat("é", 100),
				KeyBits:   2432,
			},
		},
	}
}

// TestMeasurementCodecRoundTrip: a measurement's binary form is its row
// of a batch frame; every corner case survives Add, AppendTo, Decode and
// Record field for field.
func TestMeasurementCodecRoundTrip(t *testing.T) {
	cases := codecCases()
	var b Batch
	if err := b.Decode(batchOf(0, cases).AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	for i, want := range cases {
		got := b.Record(i)
		if !got.Time.Equal(want.Time) {
			t.Fatalf("case %d: time %v != %v", i, got.Time, want.Time)
		}
		got.Time = want.Time // compare the rest structurally
		if got != want {
			t.Fatalf("case %d: round trip mismatch\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestMeasurementCodecTruncation: the frame of a measurement cut short
// anywhere decodes to an error, never to a measurement.
func TestMeasurementCodecTruncation(t *testing.T) {
	full := batchOf(0, codecCases()[1:2]).AppendTo(nil)
	var b Batch
	for cut := 0; cut < len(full); cut++ {
		if err := b.Decode(full[:cut]); err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded", cut, len(full))
		}
	}
}
