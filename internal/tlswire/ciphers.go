package tlswire

// Cipher suite identifiers the probe offers. The set mirrors what a
// 2014-era browser stack advertised, which matters because interception
// products fingerprint ClientHellos and a threadbare offer list would be
// detectable (§3.3 notes proxies could evade a known methodology).
const (
	TLSRSAWithRC4128SHA         uint16 = 0x0005
	TLSRSAWith3DESEDECBCSHA     uint16 = 0x000a
	TLSRSAWithAES128CBCSHA      uint16 = 0x002f
	TLSRSAWithAES256CBCSHA      uint16 = 0x0035
	TLSRSAWithAES128CBCSHA256   uint16 = 0x003c
	TLSRSAWithAES128GCMSHA256   uint16 = 0x009c
	TLSECDHERSAWithAES128CBCSHA uint16 = 0xc013
	TLSECDHERSAWithAES256CBCSHA uint16 = 0xc014
	TLSECDHERSAWithAES128GCM256 uint16 = 0xc02f
)

// DefaultCipherSuites is the probe's offered list, most-preferred first.
var DefaultCipherSuites = []uint16{
	TLSECDHERSAWithAES128GCM256,
	TLSRSAWithAES128GCMSHA256,
	TLSECDHERSAWithAES128CBCSHA,
	TLSECDHERSAWithAES256CBCSHA,
	TLSRSAWithAES128CBCSHA256,
	TLSRSAWithAES128CBCSHA,
	TLSRSAWithAES256CBCSHA,
	TLSRSAWith3DESEDECBCSHA,
	TLSRSAWithRC4128SHA,
}

// StrongCipherSuites is DefaultCipherSuites with the export-grade
// stragglers (3DES, RC4) removed — the offer a careful proxy makes on its
// origin-facing leg. Order is preserved from the default list.
var StrongCipherSuites = []uint16{
	TLSECDHERSAWithAES128GCM256,
	TLSRSAWithAES128GCMSHA256,
	TLSECDHERSAWithAES128CBCSHA,
	TLSECDHERSAWithAES256CBCSHA,
	TLSRSAWithAES128CBCSHA256,
	TLSRSAWithAES128CBCSHA,
	TLSRSAWithAES256CBCSHA,
}

// WeakCipherSuite reports whether id is one of the suites a 2016-era
// audit would flag in an upstream offer (RC4 per RFC 7465, 3DES per
// Sweet32).
func WeakCipherSuite(id uint16) bool {
	return id == TLSRSAWithRC4128SHA || id == TLSRSAWith3DESEDECBCSHA
}
