package certgen

import (
	"crypto"
	"crypto/rsa"
	"crypto/sha1"
	"crypto/sha256"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/asn1"
	"encoding/binary"
	"fmt"
	"math/big"
	"time"
)

// SigAlg identifies a supported certificate signature algorithm.
type SigAlg int

// Signature algorithms observed in the study's substitute certificates.
const (
	SHA256WithRSA SigAlg = iota
	SHA1WithRSA
	MD5WithRSA
)

// String returns the conventional name of the algorithm.
func (a SigAlg) String() string {
	switch a {
	case SHA256WithRSA:
		return "SHA256-RSA"
	case SHA1WithRSA:
		return "SHA1-RSA"
	case MD5WithRSA:
		return "MD5-RSA"
	default:
		return fmt.Sprintf("SigAlg(%d)", int(a))
	}
}

var (
	oidSignatureMD5WithRSA    = asn1.ObjectIdentifier{1, 2, 840, 113549, 1, 1, 4}
	oidSignatureSHA1WithRSA   = asn1.ObjectIdentifier{1, 2, 840, 113549, 1, 1, 5}
	oidSignatureSHA256WithRSA = asn1.ObjectIdentifier{1, 2, 840, 113549, 1, 1, 11}
	oidPublicKeyRSA           = asn1.ObjectIdentifier{1, 2, 840, 113549, 1, 1, 1}

	oidExtKeyUsage         = asn1.ObjectIdentifier{2, 5, 29, 15}
	oidExtBasicConstraints = asn1.ObjectIdentifier{2, 5, 29, 19}
	oidExtSubjectAltName   = asn1.ObjectIdentifier{2, 5, 29, 17}
	oidExtSubjectKeyID     = asn1.ObjectIdentifier{2, 5, 29, 14}
	oidExtAuthorityKeyID   = asn1.ObjectIdentifier{2, 5, 29, 35}
	oidExtExtendedKeyUsage = asn1.ObjectIdentifier{2, 5, 29, 37}

	oidEKUServerAuth = asn1.ObjectIdentifier{1, 3, 6, 1, 5, 5, 7, 3, 1}
	oidEKUClientAuth = asn1.ObjectIdentifier{1, 3, 6, 1, 5, 5, 7, 3, 2}
)

func (a SigAlg) oid() asn1.ObjectIdentifier {
	switch a {
	case SHA1WithRSA:
		return oidSignatureSHA1WithRSA
	case MD5WithRSA:
		return oidSignatureMD5WithRSA
	default:
		return oidSignatureSHA256WithRSA
	}
}

func (a SigAlg) hash() crypto.Hash {
	switch a {
	case SHA1WithRSA:
		return crypto.SHA1
	case MD5WithRSA:
		return crypto.MD5
	default:
		return crypto.SHA256
	}
}

// Template describes one certificate to mint. Zero values get sensible
// defaults from fill().
type Template struct {
	// Subject is the certificate's subject name. Use Name fields directly;
	// leave Organization empty to omit the O component entirely (the "null
	// Issuer Organization" pattern from §5.1 arises when such a cert signs
	// others).
	Subject pkix.Name

	// Issuer overrides the issuer name. When nil the signer's subject is
	// used (normal operation). Setting it lets a proxy forge the
	// "claims-DigiCert" certificates from §5.2: the name says DigiCert but
	// the signature does not.
	Issuer *pkix.Name

	// DNSNames become a SubjectAltName extension when non-empty.
	DNSNames []string

	// SerialNumber; when nil, it is derived from everything else the
	// certificate says (see Issue), so equal inputs sign equal bytes.
	SerialNumber *big.Int

	NotBefore, NotAfter time.Time

	// IsCA marks the certificate as a CA via BasicConstraints(critical).
	IsCA bool

	// SigAlg selects the signature algorithm (default SHA256WithRSA).
	SigAlg SigAlg

	// OmitSKI drops the SubjectKeyId extension; some of the malware-minted
	// certificates in the study were minimal like this.
	OmitSKI bool

	// OmitBasicConstraints drops BasicConstraints even for CA certs,
	// another sloppy-forgery pattern.
	OmitBasicConstraints bool
}

func (t *Template) fill() {
	if t.NotBefore.IsZero() {
		t.NotBefore = DefaultNotBefore
	}
	if t.NotAfter.IsZero() {
		t.NotAfter = t.NotBefore.AddDate(1, 0, 0)
	}
}

// DefaultNotBefore anchors certificate validity in the study period
// (January 2014, the first AdWords campaign) so that fixtures are stable.
var DefaultNotBefore = time.Date(2014, time.January, 6, 0, 0, 0, 0, time.UTC)

// ASN.1 shapes mirroring RFC 5280. These are marshalled with encoding/asn1;
// field order and tags must match the RFC exactly.

type tbsCertificate struct {
	Version      int `asn1:"optional,explicit,default:0,tag:0"`
	SerialNumber *big.Int
	Signature    pkix.AlgorithmIdentifier
	Issuer       asn1.RawValue
	Validity     validity
	Subject      asn1.RawValue
	PublicKey    publicKeyInfo
	Extensions   []pkix.Extension `asn1:"omitempty,optional,explicit,tag:3"`
}

type validity struct {
	NotBefore, NotAfter time.Time
}

type publicKeyInfo struct {
	Algorithm pkix.AlgorithmIdentifier
	PublicKey asn1.BitString
}

type certificate struct {
	TBSCertificate     asn1.RawValue
	SignatureAlgorithm pkix.AlgorithmIdentifier
	SignatureValue     asn1.BitString
}

type rsaPublicKey struct {
	N *big.Int
	E int
}

type basicConstraints struct {
	IsCA       bool `asn1:"optional"`
	MaxPathLen int  `asn1:"optional,default:-1"`
}

type authorityKeyID struct {
	ID []byte `asn1:"optional,tag:0"`
}

var nullParams = asn1.RawValue{Tag: asn1.TagNull, FullBytes: []byte{asn1.TagNull, 0}}

// marshalName encodes a pkix.Name as a DER RDNSequence. An entirely empty
// name encodes as an empty SEQUENCE, which is legal and parses back as a
// blank issuer — the "null issuer" case from the paper.
func marshalName(n pkix.Name) (asn1.RawValue, error) {
	der, err := asn1.Marshal(n.ToRDNSequence())
	if err != nil {
		return asn1.RawValue{}, fmt.Errorf("certgen: marshal name: %w", err)
	}
	return asn1.RawValue{FullBytes: der}, nil
}

func marshalSAN(dnsNames []string) ([]byte, error) {
	var raw []asn1.RawValue
	for _, name := range dnsNames {
		// GeneralName dNSName is [2] IMPLICIT IA5String.
		raw = append(raw, asn1.RawValue{
			Tag:   2,
			Class: asn1.ClassContextSpecific,
			Bytes: []byte(name),
		})
	}
	return asn1.Marshal(raw)
}

func subjectKeyID(pubDER []byte) []byte {
	sum := sha1.Sum(pubDER)
	return sum[:]
}

// Issue creates a certificate for tmpl whose public key is pub, signed by
// signerKey. signerCertDER is the signer's own certificate (nil for
// self-signed); it supplies the issuer name and the AuthorityKeyId.
// A nil serial is SHA-256 over the to-be-signed bytes with serial 0,
// truncated to 63 bits and made positive. PKCS #1 v1.5 signing is
// deterministic too, so equal arguments give byte-identical certificates.
func Issue(tmpl Template, pub *rsa.PublicKey, signerKey *rsa.PrivateKey, signerCertDER []byte) ([]byte, error) {
	tmpl.fill()
	if tmpl.NotAfter.Before(tmpl.NotBefore) {
		return nil, fmt.Errorf("certgen: NotAfter %v precedes NotBefore %v", tmpl.NotAfter, tmpl.NotBefore)
	}

	// Resolve the issuer name: explicit override > signer's subject >
	// self (self-signed).
	var issuerName pkix.Name
	var signerSKI []byte
	switch {
	case tmpl.Issuer != nil:
		issuerName = *tmpl.Issuer
	case signerCertDER != nil:
		parsed, err := x509.ParseCertificate(signerCertDER)
		if err != nil {
			return nil, fmt.Errorf("certgen: parse signer cert: %w", err)
		}
		issuerName = parsed.Subject
		signerSKI = parsed.SubjectKeyId
	default:
		issuerName = tmpl.Subject
	}

	issuerRV, err := marshalName(issuerName)
	if err != nil {
		return nil, err
	}
	subjectRV, err := marshalName(tmpl.Subject)
	if err != nil {
		return nil, err
	}

	pubDER, err := asn1.Marshal(rsaPublicKey{N: pub.N, E: pub.E})
	if err != nil {
		return nil, fmt.Errorf("certgen: marshal public key: %w", err)
	}

	var exts []pkix.Extension
	if tmpl.IsCA && !tmpl.OmitBasicConstraints {
		bcDER, err := asn1.Marshal(basicConstraints{IsCA: true, MaxPathLen: -1})
		if err != nil {
			return nil, err
		}
		exts = append(exts, pkix.Extension{Id: oidExtBasicConstraints, Critical: true, Value: bcDER})
		// keyCertSign | cRLSign for a CA.
		kuDER, err := asn1.Marshal(asn1.BitString{Bytes: []byte{0x06}, BitLength: 7})
		if err != nil {
			return nil, err
		}
		exts = append(exts, pkix.Extension{Id: oidExtKeyUsage, Critical: true, Value: kuDER})
	} else if !tmpl.IsCA {
		// digitalSignature | keyEncipherment for a leaf.
		kuDER, err := asn1.Marshal(asn1.BitString{Bytes: []byte{0xa0}, BitLength: 3})
		if err != nil {
			return nil, err
		}
		exts = append(exts, pkix.Extension{Id: oidExtKeyUsage, Critical: true, Value: kuDER})
		ekuDER, err := asn1.Marshal([]asn1.ObjectIdentifier{oidEKUServerAuth, oidEKUClientAuth})
		if err != nil {
			return nil, err
		}
		exts = append(exts, pkix.Extension{Id: oidExtExtendedKeyUsage, Value: ekuDER})
	}
	if len(tmpl.DNSNames) > 0 {
		sanDER, err := marshalSAN(tmpl.DNSNames)
		if err != nil {
			return nil, fmt.Errorf("certgen: marshal SAN: %w", err)
		}
		exts = append(exts, pkix.Extension{Id: oidExtSubjectAltName, Value: sanDER})
	}
	if !tmpl.OmitSKI {
		skiDER, err := asn1.Marshal(subjectKeyID(pubDER))
		if err != nil {
			return nil, err
		}
		exts = append(exts, pkix.Extension{Id: oidExtSubjectKeyID, Value: skiDER})
	}
	if signerSKI != nil {
		akiDER, err := asn1.Marshal(authorityKeyID{ID: signerSKI})
		if err != nil {
			return nil, err
		}
		exts = append(exts, pkix.Extension{Id: oidExtAuthorityKeyID, Value: akiDER})
	}

	algo := pkix.AlgorithmIdentifier{Algorithm: tmpl.SigAlg.oid(), Parameters: nullParams}
	tbs := tbsCertificate{
		Version:      2, // X.509 v3
		SerialNumber: tmpl.SerialNumber,
		Signature:    algo,
		Issuer:       issuerRV,
		Validity:     validity{tmpl.NotBefore.UTC(), tmpl.NotAfter.UTC()},
		Subject:      subjectRV,
		PublicKey: publicKeyInfo{
			Algorithm: pkix.AlgorithmIdentifier{Algorithm: oidPublicKeyRSA, Parameters: nullParams},
			PublicKey: asn1.BitString{Bytes: pubDER, BitLength: len(pubDER) * 8},
		},
		Extensions: exts,
	}

	if tbs.SerialNumber == nil {
		tbs.SerialNumber = new(big.Int)
		der, err := asn1.Marshal(tbs)
		if err != nil {
			return nil, fmt.Errorf("certgen: marshal tbsCertificate: %w", err)
		}
		sum := sha256.Sum256(der)
		tbs.SerialNumber.SetUint64(max(binary.BigEndian.Uint64(sum[:])>>1, 1))
	}
	tbsDER, err := asn1.Marshal(tbs)
	if err != nil {
		return nil, fmt.Errorf("certgen: marshal tbsCertificate: %w", err)
	}

	h := tmpl.SigAlg.hash().New()
	h.Write(tbsDER)
	digest := h.Sum(nil)

	sig, err := rsa.SignPKCS1v15(nil, signerKey, tmpl.SigAlg.hash(), digest)
	if err != nil {
		return nil, fmt.Errorf("certgen: sign: %w", err)
	}

	certDER, err := asn1.Marshal(certificate{
		TBSCertificate:     asn1.RawValue{FullBytes: tbsDER},
		SignatureAlgorithm: algo,
		SignatureValue:     asn1.BitString{Bytes: sig, BitLength: len(sig) * 8},
	})
	if err != nil {
		return nil, fmt.Errorf("certgen: marshal certificate: %w", err)
	}
	return certDER, nil
}
